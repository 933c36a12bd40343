package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.TestWorkloads
import repro.core.CC
import repro.datasynth.DataSynth
import repro.hydra.LPFormulator
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

  /** Hydra's LP step over every view, warm: the medians (ms) of region
    * partition plus formulation, of the integral solve, and of both, over
    * 11 timed runs after 5 untimed ones. One cold run swings by more than
    * a solver change moves it.
    */
  private def hydraMillis(name: String, ccs: Seq[CC]): (Double, Double, Double) = {
    val wl = TestWorkloads.Captured(name, schema, ccs, totals)
    def run(): (Double, Double) = {
      val t0 = System.nanoTime()
      val lps = wl.formulate()
      val t1 = System.nanoTime()
      lps.map(LPFormulator.solveIntegral)
        .foreach(r => assert(r.stats.exact, s"${r.relation}: inexact Hydra LP"))
      ((t1 - t0) / 1e6, (System.nanoTime() - t1) / 1e6)
    }
    Seq.fill(5)(run())
    val runs = Seq.fill(11)(run())
    (BenchEnv.median(runs.map(_._1)), BenchEnv.median(runs.map(_._2)),
      BenchEnv.median(runs.map { case (f, s) => f + s }))
  }

  /** (total millis, all views solvable?) for the DataSynth grid path. */
  private def dataSynthMillis(ccs: Seq[CC]): (Long, Boolean) = {
    val grids = DataSynth.solveViews(schema, ccs, totals)
    (grids.map(_.lpMillis).sum, grids.forall(_.solvable))
  }

  test("Figure 13: LP processing time (WLc and WLs)") {
    val (formC, solveC, hydraC) = hydraMillis("WLc", BenchEnv.wlcCcs)
    val (formS, solveS, hydraS) = hydraMillis("WLs", BenchEnv.wlsCcs)
    val (dsCms, dsCok) = dataSynthMillis(BenchEnv.wlcCcs)
    val (dsSms, dsSok) = dataSynthMillis(BenchEnv.wlsCcs)

    def ms(x: Double) = f"$x%.2f ms"
    BenchEnv.table("Figure 13 — LP processing time (Hydra: medians of 11 warm runs)",
      Seq("workload", "DataSynth", "Hydra", "partition + formulation", "solve"),
      Seq(
        Seq("WLc", if (dsCok) s"$dsCms ms" else s"CRASH (grid > cap; ${dsCms} ms to detect)",
          ms(hydraC), ms(formC), ms(solveC)),
        Seq("WLs", if (dsSok) s"$dsSms ms" else "CRASH", ms(hydraS), ms(formS), ms(solveS))))
    println("paper: WLc DataSynth=crash Hydra=58s; WLs DataSynth=50min Hydra=13s")

    // Shape: DataSynth cannot solve WLc; both solve WLs with Hydra faster.
    assert(!dsCok, "DataSynth grid LP should exceed solver capacity on WLc")
    assert(dsSok, "DataSynth grid LP should be solvable on WLs")
    assert(hydraC < 300000, s"Hydra WLc LP took ${hydraC} ms")
    assert(hydraS <= math.max(dsSms, 50L) * 20,
      s"Hydra WLs ($hydraS ms) should not be dramatically slower than DataSynth ($dsSms ms)")
  }
}
