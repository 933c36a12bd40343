package repro.datasynth

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.hydra.Hydra

class GridPartitionSpec extends AnyFunSuite {
  private val schema = SchemaDef(Seq(
    Relation("person", "p_pk", Seq(Attr("age", 0, 100), Attr("salary", 0, 100000)), Nil)))

  private val ccs = Seq(
    CC("person", Dnf.of(Conjunct.of(Seq(
      AttrRange("age", Interval(0, 40)), AttrRange("salary", Interval(0, 40000)))).get), 1000),
    CC("person", Dnf.of(Conjunct.of(Seq(
      AttrRange("age", Interval(20, 60)), AttrRange("salary", Interval(20000, 60000)))).get), 2000),
    CC("person", Dnf.True, 8000))

  test("paper Person example: 16 grid cells (Figure 3a)") {
    assert(GridPartition.variableCount(schema, ccs) == BigInt(16))
  }

  test("boundaries include domain ends and constants") {
    assert(GridPartition.boundaries(schema, ccs.filterNot(_.pred.isTrue), "age") ==
      Vector(0.0, 20.0, 40.0, 60.0, 100.0))
  }

  test("cells enumerate the full grid, disjoint and covering") {
    val sub = ViewGraph.subViews(ccs.filterNot(_.pred.isTrue)).head
    val cells = GridPartition.cells(schema, ccs.filterNot(_.pred.isTrue), sub)
    assert(cells.size == 16)
    val pts = Seq((10.0, 10000.0), (30.0, 50000.0), (99.0, 99999.0), (0.0, 0.0))
    pts.foreach { case (a, s) =>
      assert(cells.count(c => c(0).contains(a) && c(1).contains(s)) == 1)
    }
  }

  test("grid count grows multiplicatively, region count does not") {
    // 6 constraints on 3 attrs, pairwise overlapping: grid is a product,
    // regions stay near the constraint count (the paper's core claim).
    val sch = SchemaDef(Seq(Relation("t", "t_pk",
      Seq(Attr("x", 0, 100), Attr("y", 0, 100), Attr("z", 0, 100)), Nil)))
    val cs = (1 to 6).map { i =>
      CC("t", Dnf.of(Conjunct.of(Seq(
        AttrRange("x", Interval(i * 3, 50 + i * 3)),
        AttrRange("y", Interval(i * 5, 50 + i * 5)),
        AttrRange("z", Interval(i * 7, 50 + i * 7)))).get), 100L * i)
    }
    val grid = GridPartition.variableCount(sch, cs)
    val regions = repro.hydra.LPFormulator.variableCount(sch, "t", cs)
    assert(grid == BigInt(13 * 13 * 13), s"grid=$grid")
    assert(regions < 200, s"regions=$regions")
    assert(BigInt(regions) * 10 < grid)
  }

  test("unsolvable marker above the cap") {
    val sch = SchemaDef(Seq(Relation("t", "t_pk",
      (1 to 6).map(i => Attr(s"a$i", 0, 1000)), Nil)))
    val cs = (1 to 12).map { i =>
      CC("t", Dnf.of(Conjunct.of((1 to 6).map(j =>
        AttrRange(s"a$j", Interval(i * 13 % 500, 500 + i * 17 % 500)))).get), 10L * i)
    }
    val g = DataSynth.solveView(sch, "t", cs :+ CC("t", Dnf.True, 1000), 1000, solveCap = 1000)
    assert(!g.solvable)
    assert(g.gridVars > 1000)
  }
}

/** Baseline behaviour: satisfies CCs only approximately (sampling), with
  * two-sided errors, and needs many more RI extra tuples than Hydra.
  */
class DataSynthSpec extends AnyFunSuite {
  private val schema = SchemaDef(Seq(
    Relation("T", "T_pk", Seq(Attr("C", 0, 5)), Nil),
    Relation("S", "S_pk", Seq(Attr("A", 0, 100), Attr("B", 0, 10)), Nil),
    Relation("R", "R_pk", Nil, Seq(ForeignKey("S_fk", "S"), ForeignKey("T_fk", "T"))),
  ))
  private def between(attr: String, lo: Double, hi: Double) =
    Dnf.of(Conjunct.range(attr, lo, hi))
  private val ccs = Seq(
    CC("R", Dnf.True, 8000), CC("S", Dnf.True, 700), CC("T", Dnf.True, 1500),
    CC("S", between("A", 20, 60), 400),
    CC("T", between("C", 2, 3), 900),
    CC("R", between("A", 20, 60), 5000),
    CC("R", between("A", 20, 60).and(between("C", 2, 3)), 3000))

  private lazy val grids = DataSynth.solveViews(schema, ccs)
  private lazy val res = DataSynth.instantiate(schema, grids, ccs, seed = 99)

  test("grid LPs solve for this small workload") {
    assert(grids.forall(_.solvable))
  }

  test("instantiation produces the right view sizes (before RI repair)") {
    // Totals can only grow via RI extras.
    for (g <- grids) {
      val n = res.viewTuples(g.relation).size
      val extra = res.extraTuples.getOrElse(g.relation, 0L)
      assert(n == g.total + extra, s"${g.relation}: $n vs ${g.total} + $extra")
    }
  }

  test("CCs hold approximately (within 25% or small absolute slack)") {
    res.fidelity(ccs).foreach { f =>
      assert(math.abs(f.gap) <= math.max(0.25 * f.cc.card, 80.0), s"CC ${f.cc} got ${f.achieved}")
    }
  }

  test("sampling produces at least one non-exact CC (the DataSynth flaw)") {
    assert(res.fidelity(ccs).exists(_.gap != 0))
  }

  test("FK columns reference valid PKs") {
    for ((rel, cols) <- res.fkVals; (col, fk) <- cols.zip(schema.byName(rel).fks)) {
      val n = res.viewTuples(fk.target).size
      assert(col.forall(v => v >= 1 && v <= n), s"$rel.${fk.column} out of range")
    }
  }

  test("needs more RI extras than Hydra (paper Fig. 11 shape)") {
    val hydra = Hydra.buildSummary(schema, ccs)
    assert(res.extraTuples.values.sum >= hydra.extraTuples.values.sum,
      s"datasynth ${res.extraTuples} vs hydra ${hydra.extraTuples}")
  }

  test("view sizes: the True CC, else the fallback total, else a named error") {
    val one = SchemaDef(Seq(Relation("V", "V_pk", Seq(Attr("x", 0, 10)), Nil)))
    val filter = CC("V", between("x", 2, 5), 3)
    def sizeOf(ccs: Seq[CC], fallback: Map[String, Long]) =
      DataSynth.solveViews(one, ccs, fallback).map(_.total)
    assert(sizeOf(Seq(CC("V", Dnf.True, 7), filter), Map("V" -> 99L)) == Seq(7L))
    assert(sizeOf(Seq(filter), Map("V" -> 9L)) == Seq(9L))
    val e = intercept[IllegalArgumentException](sizeOf(Seq(filter), Map.empty))
    assert(e.getMessage.contains("relation V"), e.getMessage)
  }

  test("RI repair along A→B→C gives every appended tuple a resolving FK") {
    val chain = SchemaDef(Seq(
      Relation("C3", "c3_pk", Seq(Attr("w", 0, 10)), Nil),
      Relation("B2", "b2_pk", Seq(Attr("y", 0, 10)), Seq(ForeignKey("c_fk", "C3"))),
      Relation("A1", "a1_pk", Seq(Attr("z", 0, 10)), Seq(ForeignKey("b_fk", "B2"))),
    ))
    // A1 puts every tuple at w ∈ [8,10), where B2 and C3 have none: repair
    // appends to B2, and that appended B2 tuple needs a C3 tuple too.
    val chainCcs = Seq(
      CC("A1", Dnf.True, 20), CC("A1", between("w", 8, 10), 20),
      CC("B2", Dnf.True, 10), CC("B2", between("w", 0, 2), 10),
      CC("C3", Dnf.True, 5), CC("C3", between("w", 0, 2), 5))
    val r = DataSynth.instantiate(chain, DataSynth.solveViews(chain, chainCcs), chainCcs, seed = 7)
    assert(r.extraTuples == Map("B2" -> 1L, "C3" -> 1L), r.extraTuples)
    val cellOf = (w: Double) => Seq(2.0, 8.0).count(_ <= w) // w cells of the CC boundaries
    for (rel <- Seq("A1", "B2")) {
      val fk = chain.byName(rel).fks.head
      val (mine, target) = (r.viewTuples(rel), r.viewTuples(fk.target))
      val (wMine, wTarget) = (r.viewAttrs(rel).indexOf("w"), r.viewAttrs(fk.target).indexOf("w"))
      val col = r.fkVals(rel).head
      assert(col.length == mine.size, s"$rel: ${col.length} FKs for ${mine.size} tuples")
      mine.indices.foreach { i =>
        assert(col(i) >= 1 && col(i) <= target.size, s"$rel tuple $i: FK ${col(i)} out of range")
        assert(cellOf(target(col(i).toInt - 1)(wTarget)) == cellOf(mine(i)(wMine)),
          s"$rel tuple $i: FK ${col(i)} points at another w cell")
      }
    }
  }

  // F's view has sub-views (x, y) then (x, z), separator x, cut at 50 on x.
  // (x, z) has mass only in x < 50 ∧ z < 5 and x ≥ 50 ∧ z ≥ 5. D cuts x at
  // 20 and 70, inside both of F's x cells.
  private val twoRel = SchemaDef(Seq(
    Relation("D", "d_pk", Seq(Attr("x", 0, 100)), Nil),
    Relation("F", "f_pk", Seq(Attr("y", 0, 10), Attr("z", 0, 10)), Seq(ForeignKey("d_fk", "D"))),
  ))
  private def box(ranges: (String, Double, Double)*) =
    Dnf.of(Conjunct.of(ranges.map { case (a, lo, hi) => AttrRange(a, Interval(lo, hi)) }).get)
  private val twoCcs = Seq(
    CC("F", Dnf.True, 100),
    CC("F", box(("x", 0, 50), ("y", 0, 5)), 40),
    CC("F", box(("x", 0, 50), ("z", 0, 5)), 40),
    CC("F", box(("x", 50, 100), ("z", 5, 10)), 60),
    CC("D", Dnf.True, 10), CC("D", between("x", 20, 70), 5))
  private lazy val twoGrids = DataSynth.solveViews(twoRel, twoCcs)

  test("each sub-view's tuples are sampled in cells the LP gave mass, even where the referenced view cuts finer") {
    assert(twoGrids.find(_.relation == "F").get.subs.map(_.sep) == Vector(Set.empty, Set("x")))
    val r = DataSynth.instantiate(twoRel, twoGrids, twoCcs, seed = 5)
    for (g <- twoGrids; (sub, masses) <- g.subs.zip(g.masses.get)) {
      val idx = sub.attrs.map(r.viewAttrs(g.relation).indexOf)
      r.viewTuples(g.relation).take(g.total.toInt).foreach { t =>
        val cell = masses.find(_._1.zip(idx).forall { case (iv, i) => iv.contains(t(i)) }).get
        assert(cell._2 > 0, s"${g.relation} tuple ${t.mkString(",")} lies in an empty cell of ${sub.attrs}")
      }
    }
  }

  test("a separator cell missing from the view's grid fails, naming the view") {
    // The grids were cut without F's x = 30: a tuple at x ∈ [30, 50) finds no cell.
    val cut = twoCcs :+ CC("F", between("x", 30, 100), 50)
    val e = intercept[IllegalStateException](DataSynth.instantiate(twoRel, twoGrids, cut, seed = 5))
    assert(e.getMessage.contains("DataSynth view F") && e.getMessage.contains("(x >= 30.0)"), e.getMessage)
  }

  test("instantiation is deterministic in the seed") {
    val res2 = DataSynth.instantiate(schema, grids, ccs, seed = 99)
    assert(res2.viewTuples("S").map(_.toVector) == res.viewTuples("S").map(_.toVector))
  }
}
