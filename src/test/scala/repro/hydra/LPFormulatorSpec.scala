package repro.hydra

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

class LPFormulatorSpec extends AnyFunSuite {
  private val schema = SchemaDef(Seq(
    Relation("V", "v_pk",
      Seq(Attr("x", 0, 100), Attr("y", 0, 100), Attr("z", 0, 100)), Nil)))

  private def cc(card: Long, rs: (String, Double, Double)*): CC =
    CC("V", Dnf.of(Conjunct.of(rs.map(r => AttrRange(r._1, Interval(r._2, r._3)))).get), card)

  test("person example builds the Figure 4b-sized LP") {
    val schema2 = SchemaDef(Seq(Relation("person", "p_pk",
      Seq(Attr("age", 0, 100), Attr("salary", 0, 100000)), Nil)))
    val ccs = Seq(
      CC("person", Dnf.of(Conjunct.of(Seq(
        AttrRange("age", Interval(0, 40)), AttrRange("salary", Interval(0, 40000)))).get), 1000),
      CC("person", Dnf.of(Conjunct.of(Seq(
        AttrRange("age", Interval(20, 60)), AttrRange("salary", Interval(20000, 60000)))).get), 2000))
    val (subs, parts) = LPFormulator.regionPartitions(schema2, "person", ccs)
    val lp = LPFormulator.build(schema2, "person", ccs, 8000, subs, parts)
    assert(lp.nVars == 4) // the paper's 4 regions
    assert(lp.eqs.size == 3) // total + 2 CCs (single sub-view, no consistency)
    val res = LPFormulator.solveIntegral(lp)
    assert(res.stats.exact)
    assert(res.solutions.head.rows.map(_._2).sum == 8000)
  }

  test("solution satisfies every CC on every covering sub-view") {
    val ccs = Seq(
      cc(100, ("x", 10, 50)), cc(200, ("y", 20, 60)),
      cc(30, ("x", 10, 50), ("y", 20, 60)), cc(400, ("z", 0, 50)))
    val res = LPFormulator.solve(schema, "V", ccs, 1000)
    assert(res.stats.exact)
    // Reconstruct counts per CC from the sub-view solutions.
    for (cc0 <- ccs; s <- res.solutions if cc0.pred.attrs.subsetOf(s.sub.attrSet)) {
      val got = s.rows.collect {
        case (pt, c) if cc0.pred.eval(s.sub.attrs.zip(pt).toMap) => c
      }.sum
      assert(got == cc0.card, s"CC $cc0 on ${s.sub.attrs}: got $got")
    }
  }

  test("consistency constraints equalize shared marginals across sub-views") {
    val ccs = Seq(cc(100, ("x", 10, 50), ("y", 0, 50)), cc(200, ("y", 0, 50), ("z", 20, 60)))
    val res = LPFormulator.solve(schema, "V", ccs, 1000)
    assert(res.solutions.size == 2)
    val Seq(s1, s2) = res.solutions
    def marginal(s: LPFormulator.SubViewSolution): Map[Double, Long] = {
      val yIdx = s.sub.attrs.indexOf("y")
      s.rows.groupBy(_._1(yIdx)).map { case (k, rs) => k -> rs.map(_._2).sum }
    }
    assert(marginal(s1) == marginal(s2), "y-marginals differ between sub-views")
  }

  test("variableCount equals the number of vars actually solved") {
    val ccs = Seq(cc(10, ("x", 0, 30)), cc(20, ("y", 10, 60)))
    val (subs, parts) = LPFormulator.regionPartitions(schema, "V", ccs)
    val lp = LPFormulator.build(schema, "V", ccs, 100, subs, parts)
    assert(LPFormulator.variableCount(schema, "V", ccs) == lp.nVars)
  }

  test("no non-true CCs ⇒ zero vars, trivially exact") {
    val res = LPFormulator.solve(schema, "V", Seq(CC("V", Dnf.True, 77)), 77)
    assert(res.stats.numVars == 0 && res.stats.exact && res.solutions.isEmpty)
  }

  test("solveFractional returns masses summing to the total per sub-view") {
    val ccs = Seq(cc(100, ("x", 10, 50)))
    val (subs, parts) = LPFormulator.regionPartitions(schema, "V", ccs)
    val lp = LPFormulator.build(schema, "V", ccs, 1000, subs, parts)
    val masses = LPFormulator.solveFractional(lp).get
    assert(masses.map(_.size) == parts.map(_.size))
    masses.foreach { sv =>
      val total = sv.map(_.toDouble).sum
      assert(math.abs(total - 1000.0) < 1e-6)
    }
  }

  test("infeasible CC set raises") {
    // Subset bigger than the total.
    val ccs = Seq(cc(2000, ("x", 10, 50)))
    intercept[IllegalStateException] {
      LPFormulator.solve(schema, "V", ccs, 1000)
    }
  }

  test("a view count near Long.MaxValue / 2 converts exactly; one past Long fails, naming the view") {
    val half = Long.MaxValue / 2
    val ccs = Seq(cc(half - 5, ("x", 10, 50)))
    val (subs, parts) = LPFormulator.regionPartitions(schema, "V", ccs)
    val lp = LPFormulator.build(schema, "V", ccs, half, subs, parts)
    val rows = LPFormulator.solveIntegral(lp).solutions.head.rows
    assert(rows.map(_._2).sorted == Vector(5L, half - 5))
    // Tripling every RHS triples the solution: 3·(half − 5) exceeds Long.MaxValue.
    val tripled = lp.copy(eqs = lp.eqs.map(e => e.copy(rhs = e.rhs * repro.lp.Rational(3))))
    val e = intercept[ArithmeticException](LPFormulator.solveIntegral(tripled))
    assert(e.getMessage.contains("view V") && e.getMessage.contains("does not fit in a Long"), e.getMessage)
  }

  test("overlapping CCs whose intersection is pinned down solve exactly") {
    // |x<50|=600, |x in [30,70)|=500, |x in [30,50)|=300 → consistent.
    val ccs = Seq(cc(600, ("x", 0, 50)), cc(500, ("x", 30, 70)), cc(300, ("x", 30, 50)))
    val res = LPFormulator.solve(schema, "V", ccs, 1000)
    assert(res.stats.exact)
    val s = res.solutions.head
    def count(lo: Double, hi: Double): Long = {
      val xIdx = s.sub.attrs.indexOf("x")
      s.rows.collect { case (pt, c) if pt(xIdx) >= lo && pt(xIdx) < hi => c }.sum
    }
    assert(count(0, 50) == 600)
    assert(count(30, 50) == 300)
  }

  test("regions after refinement stay homogeneous wrt every CC") {
    val ccs = Seq(
      cc(100, ("x", 10, 50), ("y", 0, 50)),
      cc(200, ("y", 25, 75), ("z", 20, 60)),
      cc(50, ("x", 30, 70)))
    val (subs, parts) = LPFormulator.regionPartitions(schema, "V", ccs)
    // Sub-views {x, y} and {y, z}; each also holds the CC conjuncts
    // restricted to their separator {y}.
    val sep = subs.map(_.attrSet).reduce(_ intersect _)
    assert(sep == Set("y"))
    val seps = ccs.flatMap(_.pred.conjuncts).map(c => Conjunct(c.ranges.filter(r => sep(r.attr))))
      .filter(_.ranges.nonEmpty).distinct.map(Dnf.of(_))
    val rnd = new scala.util.Random(7)
    for ((s, reps) <- subs.zip(parts)) {
      val dnfs = ccs.filter(_.pred.attrs.subsetOf(s.attrSet)).map(_.pred) ++ seps
      def label(p: Vector[Double]) = dnfs.map(_.eval(s.attrs.zip(p).toMap))
      val labels = reps.map(label)
      assert(labels.distinct.size == labels.size, s"two regions share a label in sub-view ${s.attrs}")
      // Each point's region (its label class) is homogeneous wrt every CC:
      // exactly one region has the point's label.
      for (_ <- 1 to 500) {
        val p = s.attrs.map(_ => if (rnd.nextBoolean()) rnd.nextInt(100).toDouble else rnd.nextDouble() * 100)
        assert(labels.count(_ == label(p)) == 1, s"point $p of sub-view ${s.attrs}")
      }
    }
  }

  test("overlapping separators: CCs on {a,b,c}, {b,c,d}, {a,b,e} are met exactly (seeded property)") {
    val attrs = Vector("a", "b", "c", "d", "e")
    val view = SchemaDef(Seq(Relation("W", "w_pk", attrs.map(Attr(_, 0, 20)), Nil)))
    val cliques = Seq(Seq("a", "b", "c"), Seq("b", "c", "d"), Seq("a", "b", "e"))
    // RIP order b,c,d → a,b,c → a,b,e: the sub-view {a,b,c} holds its own
    // separator {b,c} and the separator {a,b} of {a,b,e}; they share b.
    val order = ViewGraph.subViews(cliques.map(on => cc(1, on.map(a => (a, 0.0, 10.0)): _*)))
    assert(order.map(_.attrSet) == Vector(Set("b", "c", "d"), Set("a", "b", "c"), Set("a", "b", "e")))
    for (seed <- 1 to 300) {
      val rnd = new scala.util.Random(seed)
      def conj(on: Seq[String]): Conjunct = Conjunct.of(on.map { a =>
        val lo = rnd.nextInt(19)
        AttrRange(a, Interval(lo, math.min(20, lo + 1 + rnd.nextInt(12))))
      }).get
      val points = Vector.fill(60)(attrs.map(_ -> rnd.nextInt(20).toDouble).toMap)
      val preds = for (on <- cliques; _ <- 1 to 2) yield Dnf(Seq.fill(1 + rnd.nextInt(2))(conj(on)).distinct)
      val ccs = CC("W", Dnf.True, points.size.toLong) +: preds.map(d => CC("W", d, points.count(d.eval).toLong))
      val table = SummaryGenerator.viewSolution(view, LPFormulator.solve(view, "W", ccs, points.size.toLong))
      ccs.foreach { c =>
        assert(table.countWhere(c.pred) == c.card, s"seed $seed: CC ${c.pred.toSql} wants ${c.card}")
      }
    }
  }
}
