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

  private def stats(rel: String) = ViewLpStats(rel, 0, exact = true)
  private def pt(xs: Double*): Vector[Double] = xs.toVector
  /** Key classes on A of the Figure 8 example: [20, 40) and [40, 60). */
  private val aKey = Vector(Conjunct.range("A", 20, 40), Conjunct.range("A", 40, 60))
  private val noKey = Vector.empty[Conjunct]
  /** A first sub-view: no separator, no parent, no key. */
  private def first(attrs: String*) = SubView(attrs.toVector, Set.empty, -1, noKey)
  /** (A, C) under (A, B) of the Figure 8 example, keyed on A. */
  private val acUnderAb = SubView(Vector("A", "C"), Set("A"), 0, aKey)

  test("align & merge reproduces the paper's Figure 8 example") {
    // Sub-views (A,B) and (A,C) with matching marginals on A.
    val ab = SubViewSolution(first("A", "B"), Vector(
      (pt(20, 5), 20000L),
      (pt(40, 5), 10000L),
      (pt(40, 8), 20000L)))
    val ac = SubViewSolution(acUnderAb, Vector(
      (pt(20, 2), 20000L),
      (pt(40, 2), 25000L),
      (pt(40, 3), 5000L)))
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
    val ab = SubViewSolution(first("A", "B"), Vector(
      (pt(20, 5), 20000L),
      (pt(40, 5), 30000L)))
    val ac = SubViewSolution(acUnderAb, Vector(
      (pt(20, 2), 25000L),
      (pt(40, 2), 25000L)))
    val e = intercept[IllegalStateException](SummaryGenerator.viewSolution(schema,
      ViewLpResult("V", 50000, Vector(ab, ac), stats("V"))))
    assert(e.getMessage.contains("view V: key class [((A >= 20.0 AND A < 40.0)), NOT ((A >= 40.0 AND A < 60.0))] " +
      "has 20000 tuples"), e.getMessage)
    assert(e.getMessage.contains("but 25000 in sub-view (A, C)"), e.getMessage)
  }

  test("a first sub-view whose counts miss the view total fails, naming the view") {
    val ab = SubViewSolution(first("A", "B"), Vector(
      (pt(20, 5), 20000L),
      (pt(40, 5), 10000L)))
    val e = intercept[IllegalStateException](SummaryGenerator.viewSolution(schema,
      ViewLpResult("V", 50000, Vector(ab), stats("V"))))
    assert(e.getMessage.contains("view V: key class [] has 50000 tuples in the view total"), e.getMessage)
    assert(e.getMessage.contains("but 30000 in sub-view (A, B)"), e.getMessage)
  }

  test("instantiation assigns interval left boundaries (§5.2)") {
    val sol = SubViewSolution(first("A", "B"), Vector(
      (pt(20, 5), 10000L)))
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
    val s1 = SubViewSolution(first("A"), Vector(
      (pt(0), 30L), (pt(10), 70L)))
    val s2 = SubViewSolution(SubView(Vector("B"), Set.empty, 0, noKey), Vector(
      (pt(0), 50L), (pt(5), 50L)))
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

  private def lpFor(rel: String, total: Long, rows: Vector[(Vector[Double], Long)], attrs: Vector[String]) =
    ViewLpResult(rel, total, Vector(SubViewSolution(first(attrs: _*), rows)), stats(rel))

  test("referential repair adds missing combos with NumTuples=1") {
    // F places tuples at x=3 and x=7; D only has x=3.
    val f = ViewLpResult("F", 100,
      Vector(SubViewSolution(first("x"), Vector(
        (pt(3), 60L), (pt(7), 40L)))), stats("F"))
    val d = lpFor("D", 50, Vector((pt(3), 50L)), Vector("x"))
    val res = SummaryGenerator.generate(fkSchema, Seq(d, f))
    assert(res.extraTuples("D") == 1)
    assert(res.viewTables("D").total == 51)
    assert(res.viewTables("D").rows.exists(r => r._1 == Vector(7.0) && r._2 == 1))
  }

  test("FK values use cumulative PK offsets into the target (§5.4)") {
    val f = ViewLpResult("F", 100,
      Vector(SubViewSolution(first("x"), Vector(
        (pt(0), 30L), (pt(5), 70L)))), stats("F"))
    val d = lpFor("D", 50, Vector((pt(0), 20L), (pt(5), 30L)), Vector("x"))
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
    val a = ViewLpResult("A1", 10, Vector(SubViewSolution(first("w", "y", "z"), Vector((pt(9, 2, 1), 10L)))), stats("A1"))
    val b = ViewLpResult("B2", 5, Vector(SubViewSolution(first("w", "y"), Vector((pt(0, 2), 5L)))), stats("B2"))
    val c = ViewLpResult("C3", 5, Vector(SubViewSolution(first("w"), Vector((pt(0), 5L)))), stats("C3"))
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
      Vector(SubViewSolution(first("x"), Vector(
        (pt(3), 60L), (pt(7), 40L)))), stats("F"))
    val d = lpFor("D", 50, Vector((pt(3), 50L)), Vector("x"))
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

  test("parse fails on a corrupted summary, naming the 1-based line and the relation") {
    val head = Vector("relation r r_pk", "attrs a,b", "fks f", "")
    def failure(lines: String*): String =
      intercept[IllegalArgumentException](DbSummary.parse(lines.toVector)).getMessage
    val cases = Seq(
      Seq("row 1,2;3;4") ++ head -> Seq("line 1", "before any relation"),
      Seq("attrs a") -> Seq("line 1", "before any relation"),
      head ++ Seq("row 1,2;3;4", "row 1,2;3") -> Seq("line 6", "relation r", "3 ';'-separated fields"),
      head ++ Seq("row 1,2") -> Seq("line 5", "relation r", "3 ';'-separated fields"),
      head ++ Seq("row 1,2;3;-1") -> Seq("line 5", "relation r", "negative count -1"),
      head ++ Seq("row 1;3;4") -> Seq("line 5", "relation r", "1 attribute values", "2 attrs"),
      head ++ Seq("row 1,2;;4") -> Seq("line 5", "relation r", "0 FK values", "1 fks"),
      head ++ Seq("row 1,2;3,4;4") -> Seq("line 5", "relation r", "2 FK values"),
      head ++ Seq("row 1,x;3;4") -> Seq("line 5", "relation r", "not a number"),
      head ++ Seq("row 1,2;3;4", "attrs a") -> Seq("line 6", "relation r", "after rows"),
      head ++ Seq("relation s s_pk", "row 1,2;3;4") -> Seq("line 6", "relation s", "2 attribute values, relation has 0"),
      head ++ Seq("relation r r_pk") -> Seq("line 5", "relation r", "twice"),
      Seq("relation r") -> Seq("line 1"))
    for ((lines, wants) <- cases) {
      val msg = failure(lines: _*)
      wants.foreach(w => assert(msg.contains(w), s"${lines.mkString(" | ")}: $msg"))
    }
    // A new relation starts without the previous one's columns.
    assert(DbSummary.parse(head ++ Vector("row 1,2;3;4", "relation s s_pk", "row ;;2")).byName("s") ==
      RelationSummary("s", "s_pk", Vector.empty, Vector.empty, Vector((Vector.empty, Vector.empty, 2L))))
  }

  test("countWhere on ViewTable") {
    val vt = ViewTable("v", Vector("a"), Vector((Vector(1.0), 5L), (Vector(3.0), 7L)))
    assert(vt.countWhere(Dnf.of(Conjunct.range("a", 0, 2))) == 5)
    assert(vt.countWhere(Dnf.True) == 12)
    assert(vt.countWhere(Dnf.of(Conjunct.range("a", 9, 10))) == 0)
  }

  test("ViewTable sums near Long.MaxValue / 2 are exact; one past Long fails, naming the relation") {
    val half = Long.MaxValue / 2
    val low = Dnf.of(Conjunct.range("a", 0, 2))
    val fits = ViewTable("v", Vector("a"), Vector((Vector(1.0), half), (Vector(1.5), half), (Vector(3.0), 1L)))
    assert(fits.total == Long.MaxValue && fits.countWhere(low) == Long.MaxValue - 1)
    val over = ViewTable("big_view", Vector("a"), Vector((Vector(1.0), half + 1), (Vector(1.5), half + 1)))
    for (sum <- Seq(() => over.total, () => over.countWhere(low), () => over.countWhere(Dnf.True))) {
      val e = intercept[ArithmeticException](sum())
      assert(e.getMessage.contains("relation big_view"), e.getMessage)
    }
  }

  test("CC scaling near Long.MaxValue / 2 is exact; one past Long fails, naming the relation") {
    val half = Long.MaxValue / 2
    assert(CC("r", Dnf.True, half).scaled(2).card == Long.MaxValue - 1)
    assert(CC.scaledCount("r", 2, half) == Long.MaxValue - 1)
    val e1 = intercept[ArithmeticException](CC("store_sales", Dnf.True, half + 1).scaled(2))
    assert(e1.getMessage.contains("relation store_sales"), e1.getMessage)
    val e2 = intercept[ArithmeticException](CC.scaledCount("date_dim", half, 3))
    assert(e2.getMessage.contains("relation date_dim"), e2.getMessage)
  }
}
