package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.CC
import repro.datasynth.DataSynth
import repro.hydra.Hydra
import repro.tpcds.TpcdsLite

/** Figure 13: LP processing time.
  * Paper:   WLc — DataSynth crash, Hydra 58 s;  WLs — DataSynth 50 min,
  * Hydra 13 s. Here "crash" is reproduced as the grid LP exceeding the
  * solver-capacity cap (the analogue of Z3 collapsing under billions of
  * variables), and absolute times are scaled to the smaller workloads.
  */
class Fig13LPTimeBench extends AnyFunSuite {
  private val schema = TpcdsLite.schema
  private val totals = TpcdsLite.rowCounts(BenchEnv.sf)

  private def hydraMillis(ccs: Seq[CC]): Long = {
    val res = Hydra.buildSummary(schema, ccs, totals)
    res.lpStats.foreach(s => assert(s.exact, s"${s.relation}: inexact Hydra LP"))
    res.lpMillis
  }

  /** (total millis, all views solvable?) for the DataSynth grid path. */
  private def dataSynthMillis(ccs: Seq[CC]): (Long, Boolean) = {
    val grids = DataSynth.solveViews(schema, ccs, totals)
    (grids.map(_.lpMillis).sum, grids.forall(_.solvable))
  }

  test("Figure 13: LP processing time (WLc and WLs)") {
    val hydraC = hydraMillis(BenchEnv.wlcCcs)
    val hydraS = hydraMillis(BenchEnv.wlsCcs)
    val (dsCms, dsCok) = dataSynthMillis(BenchEnv.wlcCcs)
    val (dsSms, dsSok) = dataSynthMillis(BenchEnv.wlsCcs)

    BenchEnv.table("Figure 13 — LP processing time",
      Seq("workload", "DataSynth", "Hydra"),
      Seq(
        Seq("WLc", if (dsCok) s"$dsCms ms" else s"CRASH (grid > cap; ${dsCms} ms to detect)",
          s"$hydraC ms"),
        Seq("WLs", if (dsSok) s"$dsSms ms" else "CRASH", s"$hydraS ms")))
    println("paper: WLc DataSynth=crash Hydra=58s; WLs DataSynth=50min Hydra=13s")

    // Shape: DataSynth cannot solve WLc; both solve WLs with Hydra faster.
    assert(!dsCok, "DataSynth grid LP should exceed solver capacity on WLc")
    assert(dsSok, "DataSynth grid LP should be solvable on WLs")
    assert(hydraC < 300000, s"Hydra WLc LP took ${hydraC} ms")
    assert(hydraS <= math.max(dsSms, 50L) * 20,
      s"Hydra WLs ($hydraS ms) should not be dramatically slower than DataSynth ($dsSms ms)")
  }
}
