package repro.hydra

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.ViewGraph.SubView
import repro.hydra.LPFormulator.{SubViewSolution, ViewLpResult, ViewLpStats}

/** Direct tests of the §5 machinery: align & merge, instantiation,
  * referential repair and relation-summary extraction.
  */
class SummaryGeneratorSpec extends AnyFunSuite {

  private val schema = SchemaDef(Seq(
    Relation("V", "v_pk", Seq(Attr("A", 0, 100), Attr("B", 0, 10), Attr("C", 0, 5)), Nil)))

  private def stats(rel: String) = ViewLpStats(rel, 0, 0, 0, 0, exact = true)
  private def box(ivs: (Double, Double)*): Box = Box(ivs.toVector.map(i => Interval(i._1, i._2)))

  test("align & merge reproduces the paper's Figure 8 example") {
    // Sub-views (A,B) and (A,C) with matching marginals on A.
    val ab = SubViewSolution(SubView(Vector("A", "B")), Vector(
      (box((20, 40), (5, 8)), 20000L),
      (box((40, 60), (5, 8)), 10000L),
      (box((40, 60), (8, 10)), 20000L)))
    val ac = SubViewSolution(SubView(Vector("A", "C")), Vector(
      (box((20, 40), (2, 3)), 20000L),
      (box((40, 60), (2, 3)), 25000L),
      (box((40, 60), (3, 5)), 5000L)))
    val vt = SummaryGenerator.viewSolution(schema,
      ViewLpResult("V", 50000, Vector(ab, ac), stats("V")))
    assert(vt.total == 50000)
    // A=[40,60) rows must split so counts pair: (10000 B-low) then (15000, 5000).
    val a40 = vt.rows.filter(_._1(0) == 40.0)
    assert(a40.map(_._2).sum == 30000)
    assert(vt.rows.map(_._2).forall(_ > 0))
    // Marginals preserved after merge.
    assert(vt.rows.filter(r => r._1(1) == 5.0).map(_._2).sum == 30000) // B in [5,8)
    assert(vt.rows.filter(r => r._1(2) == 2.0).map(_._2).sum == 45000) // C in [2,3)
  }

  test("sub-views whose totals differ on a shared cell fail, naming view and cell") {
    // Both sides hold 50 000 tuples, but A=[20,40) has 20 000 vs 25 000.
    val ab = SubViewSolution(SubView(Vector("A", "B")), Vector(
      (box((20, 40), (5, 8)), 20000L),
      (box((40, 60), (5, 8)), 30000L)))
    val ac = SubViewSolution(SubView(Vector("A", "C")), Vector(
      (box((20, 40), (2, 3)), 25000L),
      (box((40, 60), (2, 3)), 25000L)))
    val e = intercept[IllegalStateException](SummaryGenerator.viewSolution(schema,
      ViewLpResult("V", 50000, Vector(ab, ac), stats("V"))))
    assert(e.getMessage.contains("view V: shared cell (A from 20.0) has 20000 tuples"), e.getMessage)
    assert(e.getMessage.contains("but 25000 in sub-view (A, C)"), e.getMessage)
  }

  test("instantiation assigns interval left boundaries (§5.2)") {
    val sol = SubViewSolution(SubView(Vector("A", "B")), Vector(
      (box((20, 30), (5, 8)), 10000L)))
    val vt = SummaryGenerator.viewSolution(schema,
      ViewLpResult("V", 10000, Vector(sol), stats("V")))
    assert(vt.rows == Vector((Vector(20.0, 5.0, 0.0), 10000L))) // C unconstrained → domain lo
  }

  test("no sub-views yields one degenerate row at domain minima") {
    val vt = SummaryGenerator.viewSolution(schema,
      ViewLpResult("V", 42, Vector.empty, stats("V")))
    assert(vt.rows == Vector((Vector(0.0, 0.0, 0.0), 42L)))
  }

  test("zero total yields an empty view") {
    val vt = SummaryGenerator.viewSolution(schema,
      ViewLpResult("V", 0, Vector.empty, stats("V")))
    assert(vt.rows.isEmpty)
  }

  test("disjoint sub-views merge positionally with matching totals") {
    val s1 = SubViewSolution(SubView(Vector("A")), Vector(
      (box((0, 10)), 30L), (box((10, 20)), 70L)))
    val s2 = SubViewSolution(SubView(Vector("B")), Vector(
      (box((0, 5)), 50L), (box((5, 10)), 50L)))
    val vt = SummaryGenerator.viewSolution(schema,
      ViewLpResult("V", 100, Vector(s1, s2), stats("V")))
    assert(vt.total == 100)
    // Positional pairing: 30 | 20/50 split at the 50-boundary.
    assert(vt.rows.map(_._2).sorted == Vector(20L, 30L, 50L))
  }

  private val fkSchema = SchemaDef(Seq(
    Relation("D", "d_pk", Seq(Attr("x", 0, 10)), Nil),
    Relation("F", "f_pk", Seq(Attr("z", 0, 10)), Seq(ForeignKey("d_fk", "D"))),
  ))

  private def lpFor(rel: String, total: Long, rows: Vector[(Box, Long)], attrs: Vector[String]) =
    ViewLpResult(rel, total, Vector(SubViewSolution(SubView(attrs), rows)), stats(rel))

  test("referential repair adds missing combos with NumTuples=1") {
    // F places tuples at x=3 and x=7; D only has x=3.
    val f = ViewLpResult("F", 100,
      Vector(SubViewSolution(SubView(Vector("x")), Vector(
        (box((3, 4)), 60L), (box((7, 8)), 40L)))), stats("F"))
    val d = lpFor("D", 50, Vector((box((3, 4)), 50L)), Vector("x"))
    val res = SummaryGenerator.generate(fkSchema, Seq(d, f))
    assert(res.extraTuples("D") == 1)
    assert(res.viewTables("D").total == 51)
    assert(res.viewTables("D").rows.exists(r => r._1 == Vector(7.0) && r._2 == 1))
  }

  test("FK values use cumulative PK offsets into the target (§5.4)") {
    val f = ViewLpResult("F", 100,
      Vector(SubViewSolution(SubView(Vector("x")), Vector(
        (box((0, 1)), 30L), (box((5, 6)), 70L)))), stats("F"))
    val d = lpFor("D", 50, Vector((box((0, 1)), 20L), (box((5, 6)), 30L)), Vector("x"))
    val res = SummaryGenerator.generate(fkSchema, Seq(d, f))
    val fSum = res.summary.byName("F")
    val fView = res.viewTables("F")
    val xIdx = fView.attrs.indexOf("x")
    // x=0 block maps to D pk 1; x=5 block starts after the 20 x=0 tuples.
    val fkByX = fView.rows.zip(fSum.rows).map { case ((vals, _), (_, fks, _)) =>
      vals(xIdx) -> fks.head
    }.toMap
    val dSum = res.summary.byName("D")
    assert(fkByX(0.0) == 1L)
    assert(fkByX(5.0) == 21L)
    assert(dSum.rows.map(_._3).sum == 50)
  }

  test("repair cascades along FK chains (A→B→C)") {
    val chain = SchemaDef(Seq(
      Relation("C3", "c3_pk", Seq(Attr("w", 0, 10)), Nil),
      Relation("B2", "b2_pk", Seq(Attr("y", 0, 10)), Seq(ForeignKey("c_fk", "C3"))),
      Relation("A1", "a1_pk", Seq(Attr("z", 0, 10)), Seq(ForeignKey("b_fk", "B2"))),
    ))
    // A1's view (z,y,w) has combo (1, 2, 9); B2's view (y,w) lacks it; C3 lacks w=9.
    val a = ViewLpResult("A1", 10, Vector(SubViewSolution(
      SubView(Vector("w", "y", "z")), Vector((box((9, 10), (2, 3), (1, 2)), 10L)))), stats("A1"))
    val b = ViewLpResult("B2", 5, Vector(SubViewSolution(
      SubView(Vector("w", "y")), Vector((box((0, 1), (2, 3)), 5L)))), stats("B2"))
    val c = ViewLpResult("C3", 5, Vector(SubViewSolution(
      SubView(Vector("w")), Vector((box((0, 1)), 5L)))), stats("C3"))
    val res = SummaryGenerator.generate(chain, Seq(c, b, a))
    assert(res.extraTuples("B2") == 1, s"got ${res.extraTuples}")
    assert(res.extraTuples("C3") == 1)
    // All FKs resolvable.
    for (rel <- Seq("A1", "B2")) {
      val s = res.summary.byName(rel)
      val t = res.summary.byName(chain.byName(rel).fks.head.target)
      s.rows.foreach { case (_, fks, _) => assert(fks.head >= 1 && fks.head <= t.total) }
    }
  }

  test("generate is deterministic") {
    val f = ViewLpResult("F", 100,
      Vector(SubViewSolution(SubView(Vector("x")), Vector(
        (box((3, 4)), 60L), (box((7, 8)), 40L)))), stats("F"))
    val d = lpFor("D", 50, Vector((box((3, 4)), 50L)), Vector("x"))
    val r1 = SummaryGenerator.generate(fkSchema, Seq(d, f))
    val r2 = SummaryGenerator.generate(fkSchema, Seq(d, f))
    assert(r1.summary == r2.summary)
  }
}

class DbSummarySpec extends AnyFunSuite {
  private val sum = DbSummary(Vector(
    RelationSummary("r", "r_pk", Vector("a", "b"), Vector("fk1"),
      Vector((Vector(1.5, 2.0), Vector(7L), 10L), (Vector(3.0, 4.5), Vector(1L), 5L))),
    RelationSummary("empty", "e_pk", Vector.empty, Vector.empty, Vector.empty)))

  test("round-trip with empty relations and empty column lists") {
    val p = java.nio.file.Files.createTempFile("s", ".sum").toString
    DbSummary.save(sum, p)
    assert(DbSummary.load(p) == sum)
  }

  test("starts are cumulative") {
    assert(sum.byName("r").starts == Vector(0L, 10L, 15L))
    assert(sum.byName("r").total == 15)
  }

  test("parse rejects malformed tags") {
    intercept[IllegalArgumentException] {
      DbSummary.parse(Vector("bogus line"))
    }
  }

  test("countWhere on ViewTable") {
    val vt = ViewTable("v", Vector("a"), Vector((Vector(1.0), 5L), (Vector(3.0), 7L)))
    assert(vt.countWhere(Dnf.of(Conjunct.range("a", 0, 2))) == 5)
    assert(vt.countWhere(Dnf.True) == 12)
    assert(vt.countWhere(Dnf.of(Conjunct.range("a", 9, 10))) == 0)
  }
}
