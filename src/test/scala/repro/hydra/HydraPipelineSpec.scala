package repro.hydra

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** End-to-end pipeline tests on the paper's running example (Figure 1):
  * schema R(S_fk, T_fk), S(A,B), T(C) with the AQP-derived CCs, checking
  * that the generated database summary satisfies every CC exactly and
  * maintains referential integrity.
  */
class HydraPipelineSpec extends AnyFunSuite {

  val schema: SchemaDef = SchemaDef(Seq(
    Relation("T", "T_pk", Seq(Attr("C", 0, 5)), Nil),
    Relation("S", "S_pk", Seq(Attr("A", 0, 100), Attr("B", 0, 10)), Nil),
    Relation("R", "R_pk", Nil, Seq(ForeignKey("S_fk", "S"), ForeignKey("T_fk", "T"))),
  ))

  private def between(attr: String, lo: Double, hi: Double) =
    Dnf.of(Conjunct.range(attr, lo, hi))

  // Figure 1d, rewritten onto views by the preprocessor (§3.2).
  val ccs: Seq[CC] = Seq(
    CC("R", Dnf.True, 80000),
    CC("S", Dnf.True, 700),
    CC("T", Dnf.True, 1500),
    CC("S", between("A", 20, 60), 400),
    CC("T", between("C", 2, 3), 900),
    CC("R", between("A", 20, 60), 50000),
    CC("R", between("A", 20, 60).and(between("C", 2, 3)), 30000),
  )

  lazy val result: Hydra.Result = Hydra.buildSummary(schema, ccs)

  test("every CC is satisfied exactly on the summary") {
    ccs.foreach { cc =>
      assert(result.ccCount(cc) == cc.card, s"CC $cc got ${result.ccCount(cc)}")
    }
  }

  test("LPs are small and exactly solved") {
    result.lpStats.foreach { st =>
      assert(st.exact, s"${st.relation} LP not integral")
      assert(st.numVars <= 16, s"${st.relation}: ${st.numVars} vars — regions should be few")
    }
  }

  test("R view solution totals 80000 plus RI additions only") {
    assert(result.viewTables("R").total == 80000)
  }

  test("relation summaries carry the FK columns with valid targets") {
    val r = result.summary.byName("R")
    assert(r.fkCols == Vector("S_fk", "T_fk"))
    val sTotal = result.summary.byName("S").total
    val tTotal = result.summary.byName("T").total
    r.rows.foreach { case (_, fks, _) =>
      assert(fks(0) >= 1 && fks(0) <= sTotal, s"S_fk ${fks(0)} out of [1,$sTotal]")
      assert(fks(1) >= 1 && fks(1) <= tTotal, s"T_fk ${fks(1)} out of [1,$tTotal]")
    }
  }

  test("FK values point at rows whose attributes match the borrowed values") {
    // Resolve each R row's S_fk through the S summary and check A,B match
    // what the R view solution claims — the volumetric-fidelity invariant.
    val rView = result.viewTables("R")
    val s = result.summary.byName("S")
    val rSum = result.summary.byName("R")
    val aIdx = rView.attrs.indexOf("A")
    val bIdx = rView.attrs.indexOf("B")
    rView.rows.zip(rSum.rows).foreach { case ((viewVals, c1), (_, fks, c2)) =>
      assert(c1 == c2)
      val sfk = fks(0)
      // Locate the S summary block containing PK sfk.
      val j = s.starts.lastIndexWhere(_ < sfk) // block j covers (starts(j), starts(j+1)]
      val (sVals, _, _) = s.rows(j)
      assert(sVals(0) == viewVals(aIdx) && sVals(1) == viewVals(bIdx),
        s"R row borrowed (A,B)=(${viewVals(aIdx)},${viewVals(bIdx)}) but S block has $sVals")
    }
  }

  test("extra tuples for referential integrity are data-scale-free (bounded by summary rows)") {
    val totalExtras = result.extraTuples.values.sum
    assert(totalExtras <= result.viewTables("R").rows.size * 2L,
      s"extras $totalExtras not bounded by R summary rows")
  }

  test("summary totals differ from CC totals only by RI additions") {
    for (rel <- Seq("S", "T")) {
      val base = ccs.find(c => c.relation == rel && c.pred.isTrue).get.card
      val extra = result.extraTuples.getOrElse(rel, 0L)
      assert(result.summary.byName(rel).total == base + extra)
    }
  }

  test("summary rows are tiny relative to data scale") {
    assert(result.summary.relations.map(_.rows.size).sum < 100,
      "summary should be a handful of rows, not data-scale")
  }

  test("serialization round-trips") {
    val path = java.nio.file.Files.createTempFile("hydra", ".summary").toString
    DbSummary.save(result.summary, path)
    val loaded = DbSummary.load(path)
    assert(loaded == result.summary)
  }

  test("deterministic: rebuilding gives the identical summary") {
    val again = Hydra.buildSummary(schema, ccs)
    assert(again.summary == result.summary)
  }
}

/** The same pipeline under adversarial variations. */
class HydraPipelineEdgeSpec extends AnyFunSuite {
  val schema: SchemaDef = SchemaDef(Seq(
    Relation("D", "d_pk", Seq(Attr("x", 0, 10), Attr("y", 0, 10)), Nil),
    Relation("F", "f_pk", Seq(Attr("z", 0, 10)), Seq(ForeignKey("d_fk", "D"))),
  ))

  test("DNF constraint on the fact view") {
    val pred = Dnf(Seq(
      Conjunct.of(Seq(AttrRange("x", Interval(0, 5)), AttrRange("z", Interval(2, 8)))).get,
      Conjunct.of(Seq(AttrRange("y", Interval(7, 10)))).get))
    val ccs = Seq(
      CC("D", Dnf.True, 50), CC("F", Dnf.True, 1000),
      CC("D", Dnf.of(Conjunct.range("x", 0, 5)), 30),
      CC("F", pred, 400))
    val res = Hydra.buildSummary(schema, ccs)
    assert(res.fidelity(ccs).flatMap(_.failure).isEmpty)
  }

  test("zero-cardinality CC") {
    val ccs = Seq(
      CC("D", Dnf.True, 50), CC("F", Dnf.True, 100),
      CC("F", Dnf.of(Conjunct.range("z", 9, 10)), 0),
      CC("F", Dnf.of(Conjunct.range("z", 0, 3)), 100))
    val res = Hydra.buildSummary(schema, ccs)
    assert(res.fidelity(ccs).flatMap(_.failure).isEmpty)
  }

  test("constraint equal to the whole relation") {
    val ccs = Seq(
      CC("D", Dnf.True, 50), CC("F", Dnf.True, 100),
      CC("F", Dnf.of(Conjunct.range("z", 0, 10)), 100))
    val res = Hydra.buildSummary(schema, ccs)
    assert(res.fidelity(ccs).flatMap(_.failure).isEmpty)
  }

  test("unconstrained relation gets fallback total") {
    val ccs = Seq(CC("F", Dnf.True, 100))
    val res = Hydra.buildSummary(schema, ccs, fallbackTotals = Map("D" -> 7))
    assert(res.viewTables("F").total == 100)
    assert(res.summary.byName("D").total >= 7)
  }

  test("missing total raises a clear error") {
    intercept[IllegalArgumentException] {
      Hydra.buildSummary(schema, Seq(CC("F", Dnf.True, 10)))
    }
  }

  test("nested/overlapping range CCs on one attribute") {
    val ccs = Seq(
      CC("D", Dnf.True, 50), CC("F", Dnf.True, 1000),
      CC("F", Dnf.of(Conjunct.range("z", 0, 8)), 900),
      CC("F", Dnf.of(Conjunct.range("z", 2, 6)), 500),
      CC("F", Dnf.of(Conjunct.range("z", 4, 10)), 400))
    val res = Hydra.buildSummary(schema, ccs)
    assert(res.fidelity(ccs).flatMap(_.failure).isEmpty)
  }

  test("three-way attribute chain across sub-views stays consistent") {
    // CCs on (x,z) and (y,z) force two sub-views sharing z… but x,y,z on F's
    // view: sub-views {x,z} and {y,z} with consistency on z.
    val ccs = Seq(
      CC("D", Dnf.True, 50), CC("F", Dnf.True, 1000),
      CC("F", Dnf.of(Conjunct.of(Seq(AttrRange("x", Interval(0, 5)), AttrRange("z", Interval(0, 5)))).get), 300),
      CC("F", Dnf.of(Conjunct.of(Seq(AttrRange("y", Interval(0, 5)), AttrRange("z", Interval(3, 7)))).get), 200))
    val res = Hydra.buildSummary(schema, ccs)
    assert(res.fidelity(ccs).flatMap(_.failure).isEmpty)
  }
}
