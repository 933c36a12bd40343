package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.datasynth.DataSynth
import repro.hydra.{DbSummary, Hydra, TupleGenerator}
import repro.tpcds.TpcdsLite

/** Figure 14: static data materialization time, post-LP.
  * Paper (10 / 100 / 1000 GB): DataSynth 4 h / 42 h / >1 week,
  * Hydra 2 min / 11 min / 1.6 h. We scale the WLs CC set by ×1/×10/×100
  * (the database-size axis) and materialize both ways to parquet. Hydra is
  * data-scale-light (summary + parallel generate-and-write); DataSynth
  * instantiates and repairs every tuple before writing.
  */
class Fig14MaterializationBench extends AnyFunSuite {

  test("Figure 14: data materialization time") {
    val spark = BenchEnv.spark
    val schema = TpcdsLite.schema
    val base = BenchEnv.wlsCcs
    val outRoot = java.nio.file.Files.createTempDirectory("fig14").toString

    // Warm up Spark's write path so the x1 measurement isn't dominated by
    // first-job initialization costs.
    {
      val res = Hydra.buildSummary(schema, base, TpcdsLite.rowCounts(BenchEnv.sf))
      val p = java.nio.file.Files.createTempFile("fig14-warm", ".summary").toString
      DbSummary.save(res.summary, p)
      TupleGenerator.materialize(spark, p, s"$outRoot/warmup")
    }

    // Each side runs 3 times per scale, alternating, and reports its median:
    // one wall-clock run of either side swings with the host's load.
    val rows = Seq(1L, 10L, 100L).map { k =>
      val (ccs, totals) = BenchEnv.wlsScaled(k)
      val runs = (1 to 3).map { i =>
        // Hydra: summary → dynamic generation → parquet.
        val (_, hydraMs) = BenchEnv.time {
          val res = Hydra.buildSummary(schema, ccs, totals)
          val p = java.nio.file.Files.createTempFile("fig14", ".summary").toString
          DbSummary.save(res.summary, p)
          TupleGenerator.materialize(spark, p, s"$outRoot/hydra-$k-$i")
        }

        // DataSynth: grid LP → per-tuple sampling → RI repair → parquet.
        val (_, dsMs) = BenchEnv.time {
          val grids = DataSynth.solveViews(schema, ccs, totals)
          val inst = DataSynth.instantiate(schema, grids, ccs, seed = 7)
          DataSynth.toRelationDfs(spark, schema, inst).foreach { case (rel, df) =>
            df.write.mode("overwrite").parquet(s"$outRoot/ds-$k/$rel")
          }
        }
        (dsMs, hydraMs)
      }
      val totalRows = totals.values.sum
      (k, totalRows, BenchEnv.median(runs.map(_._1)), BenchEnv.median(runs.map(_._2)))
    }

    BenchEnv.table("Figure 14 — data materialization time (medians of 3 runs)",
      Seq("scale", "total rows", "DataSynth", "Hydra", "speedup"),
      rows.map { case (k, n, ds, h) =>
        Seq(s"x$k", n.toString, s"$ds ms", s"$h ms", f"${ds.toDouble / h}%.1f") })
    println("paper: 10GB 4h vs 2min; 100GB 42h vs 11min; 1000GB >1week vs 1.6h")

    // Shape: Hydra materializes faster at every scale, and the gap widens
    // (DataSynth cost is per-tuple on the driver; Hydra is summary + write).
    rows.foreach { case (k, _, ds, h) =>
      assert(h < ds, s"x$k: Hydra ($h ms) should beat DataSynth ($ds ms)")
    }
    val gapSmall = rows.head._3.toDouble / rows.head._4
    val gapBig = rows.last._3.toDouble / rows.last._4
    assert(gapBig > gapSmall, "speedup should grow with scale")
  }
}
