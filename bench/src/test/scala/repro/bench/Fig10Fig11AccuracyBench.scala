package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.CC
import repro.datasynth.DataSynth
import repro.hydra.Hydra
import repro.tpcds.TpcdsLite

/** Shared WLs regeneration results for the accuracy benches (§7.1). */
object WlsPipelines {
  lazy val ccs: Seq[CC] = BenchEnv.wlsCcs
  private val totals = TpcdsLite.rowCounts(BenchEnv.sf)

  lazy val hydra: Hydra.Result = Hydra.buildSummary(TpcdsLite.schema, ccs, totals)

  lazy val dataSynth: DataSynth.Result = DataSynth.instantiate(TpcdsLite.schema,
    DataSynth.solveViews(TpcdsLite.schema, ccs, totals), ccs, seed = 4242)
}

/** Figure 10: percentage of CCs within a given (absolute) relative error.
  * Paper: Hydra ≈90 % of CCs at ~0 error, all within 10 %, positive-only;
  * DataSynth ≈80 % near 0 but up to 60 % error, with ~1/3 negative.
  */
class Fig10VolumetricSimilarityBench extends AnyFunSuite {
  test("Figure 10: quality of volumetric similarity (WLs)") {
    val ccs = WlsPipelines.ccs
    val hydraErrs = WlsPipelines.hydra.fidelity(ccs).map(_.relErr)
    val dsErrs = WlsPipelines.dataSynth.fidelity(ccs).map(_.relErr)

    val cuts = Seq(0.0, 0.001, 0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 1.0)
    def cdf(errs: Seq[Double]) =
      cuts.map(c => 100.0 * errs.count(e => math.abs(e) <= c) / errs.size)
    val h = cdf(hydraErrs); val d = cdf(dsErrs)
    BenchEnv.table("Figure 10 — % of CCs within relative error (WLs)",
      Seq("relative error <=", "Hydra %", "DataSynth %"),
      cuts.indices.map(i => Seq(cuts(i).toString, f"${h(i)}%.1f", f"${d(i)}%.1f")))
    println(f"max |err|: hydra=${hydraErrs.map(math.abs).max}%.4f " +
      f"datasynth=${dsErrs.map(math.abs).max}%.4f; " +
      f"negative errors: hydra=${hydraErrs.count(_ < 0)} datasynth=${dsErrs.count(_ < 0)}")

    // Shape assertions from §7.1. Absolute percentages are scale-dependent:
    // at a 100 GB client, RI extras are negligible relative to CC counts;
    // at SF 0.01 a one-tuple addition can be a large *relative* error on a
    // tiny CC. The orderings the paper reports must still hold.
    def p(errs: Seq[Double], q: Double): Double = BenchEnv.percentile(errs.map(math.abs), q)
    assert(hydraErrs.count(_ == 0.0) >= (0.55 * ccs.size).toInt,
      "Hydra should satisfy most CCs exactly")
    assert(hydraErrs.count(_ == 0.0) >= 2 * dsErrs.count(_ == 0.0),
      "Hydra should be exact far more often than DataSynth")
    assert(hydraErrs.forall(e => e >= 0), "Hydra errors must be positive-only")
    assert(p(hydraErrs, 0.90) <= 0.05, "Hydra p90 error should be tiny")
    assert(p(hydraErrs, 0.95) <= 0.25, "Hydra p95 error should be small")
    assert(dsErrs.map(math.abs).max >= hydraErrs.map(math.abs).max,
      "DataSynth worst error should exceed Hydra's")
    assert(p(dsErrs, 0.5) >= p(hydraErrs, 0.5), "DataSynth median error >= Hydra's")
    assert(dsErrs.exists(_ < 0), "DataSynth should show negative errors (sampling)")
  }
}

/** Figure 11: extra tuples inserted for referential integrity.
  * Paper: Hydra often an order of magnitude below DataSynth.
  */
class Fig11ExtraTuplesBench extends AnyFunSuite {
  test("Figure 11: extra tuples for referential integrity (WLs)") {
    val hydraX = WlsPipelines.hydra.extraTuples.withDefaultValue(0L)
    val dsX = WlsPipelines.dataSynth.extraTuples.withDefaultValue(0L)
    val rels = TpcdsLite.schema.relations.map(_.name)
    BenchEnv.table("Figure 11 — extra tuples for referential integrity (WLs)",
      Seq("relation", "Hydra", "DataSynth"),
      rels.map(r => Seq(r, hydraX(r).toString, dsX(r).toString)))
    val hTotal = rels.map(hydraX).sum
    val dTotal = rels.map(dsX).sum
    println(s"totals: hydra=$hTotal datasynth=$dTotal (paper: ~10x gap, log scale)")
    assert(dTotal >= hTotal, "DataSynth should need at least as many extras")
    assert(dTotal >= 2 * math.max(hTotal, 1),
      s"DataSynth extras ($dTotal) should be a multiple of Hydra's ($hTotal)")
    // Hydra extras are data-scale-free: bounded by summary size, not rows.
    val summaryRows = WlsPipelines.hydra.summary.relations.map(_.rows.size).sum
    assert(hTotal <= summaryRows, s"hydra extras $hTotal exceed summary rows $summaryRows")
  }
}
