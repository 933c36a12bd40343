package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import org.apache.spark.sql.functions._
import repro.hydra.{DbSummary, Hydra, TupleGenerator}
import repro.tpcds.TpcdsLite

/** Figure 15: data supply time — sequential disk scan of the materialized
  * relation vs on-the-fly generation by the Tuple Generator, for the five
  * biggest relations. Paper: dynamic generation is competitive and usually
  * faster (store_sales 168 s disk vs 87 s dynamic, etc.).
  */
class Fig15DataSupplyBench extends AnyFunSuite {

  test("Figure 15: data supply times (disk scan vs dynamic generation)") {
    val spark = BenchEnv.spark
    val schema = TpcdsLite.schema
    // ×100 the WLs-derived summary: store_sales ≈ 2.9 M rows etc.
    val (ccs, totals) = BenchEnv.wlsScaled(100)
    val res = Hydra.buildSummary(schema, ccs, totals)
    val sumPath = java.nio.file.Files.createTempFile("fig15", ".summary").toString
    DbSummary.save(res.summary, sumPath)
    val outDir = java.nio.file.Files.createTempDirectory("fig15").toString

    val rels = Seq("store_returns", "web_sales", "inventory", "catalog_sales", "store_sales")
    val rows = rels.map { rel =>
      val df = TupleGenerator.dataFrame(spark, sumPath, rel)
      df.write.mode("overwrite").parquet(s"$outDir/$rel")
      val aggCol = schema.byName(rel).attrNames.head
      def scan(d: org.apache.spark.sql.DataFrame): Unit = {
        d.agg(count(lit(1)), sum(aggCol)).collect(); ()
      }
      // Warm once, then measure 3 times per side, alternating: one
      // wall-clock run of either side swings with the host's load.
      scan(spark.read.parquet(s"$outDir/$rel"))
      scan(TupleGenerator.dataFrame(spark, sumPath, rel))
      val runs = Seq.fill(3) {
        val (_, diskMs) = BenchEnv.time(scan(spark.read.parquet(s"$outDir/$rel")))
        val (_, dynMs) = BenchEnv.time(scan(TupleGenerator.dataFrame(spark, sumPath, rel)))
        (diskMs, dynMs)
      }
      (rel, res.summary.byName(rel).total, BenchEnv.median(runs.map(_._1)), BenchEnv.median(runs.map(_._2)))
    }

    BenchEnv.table("Figure 15 — data supply times (aggregate scan, medians of 3 runs)",
      Seq("relation", "rows", "disk (parquet)", "dynamic (summary)"),
      rows.map { case (r, n, d, g) => Seq(r, n.toString, s"$d ms", s"$g ms") })
    println("paper (100GB): e.g. store_sales 168s disk vs 87s dynamic — " +
      "dynamic competitive or faster")

    // Shape: dynamic generation is practical — within 3x of a parquet scan
    // on every relation (paper: typically faster than a disk scan of
    // uncompressed Postgres pages; parquet is a much stronger baseline).
    rows.foreach { case (r, _, d, g) =>
      assert(g <= d * 3 + 2000, s"$r: dynamic $g ms vs disk $d ms — not practical")
    }
  }
}

/** §7.4: scalability to Big Data volumes — summary construction time is
  * independent of the database scale. Paper: an exabyte-scale database is
  * summarized in under 2 minutes, after which queries can run immediately.
  */
class ExabyteScaleBench extends AnyFunSuite {

  test("§7.4: summary generation time is independent of data scale") {
    val schema = TpcdsLite.schema
    val rows = Seq(1L, 1000L, 1000000000L, 1000000000000L).map { k =>
      val (ccs, totals) = BenchEnv.wlsScaled(k)
      val (res, ms) = BenchEnv.time(Hydra.buildSummary(schema, ccs, totals))
      val bytes = res.summary.relations.map(_.total).sum * 40 // ≈40 B/row
      (k, bytes, ms, res)
    }
    BenchEnv.table("§7.4 — summary construction vs modeled database scale",
      Seq("scale", "≈data bytes", "summary build (ms)", "summary rows"),
      rows.map { case (k, b, ms, r) =>
        Seq(s"x$k", f"${b.toDouble}%.3g", ms.toString, r.summary.relations.map(_.rows.size).sum.toString) })
    println("paper: exabyte-scale summary in <2 min; construction is scale-free")

    val times = rows.map(_._3)
    assert(times.last < math.max(4 * times.head, times.head + 30000),
      s"summary time should not grow with scale: $times")
    assert(rows.last._2 > 1e15, "largest modeled database should be petabyte/exabyte class")

    // Dynamic generation still works at the huge scale: pull a million-row
    // slice out of the middle of the (≈10^16-row) store_sales relation.
    val huge = rows.last._4
    val p = java.nio.file.Files.createTempFile("exa", ".summary").toString
    repro.hydra.DbSummary.save(huge.summary, p)
    val n = huge.summary.byName("store_sales").total
    val start = n / 2
    val (cnt, sliceMs) = BenchEnv.time {
      TupleGenerator.dataFrame(BenchEnv.spark, p, "store_sales",
        startPk = Some(start), endPk = Some(start + 1000000)).count()
    }
    println(s"slice of 1e6 tuples from the middle of ~${n} rows generated in $sliceMs ms")
    assert(cnt == 1000000L)
    assert(sliceMs < 60000, s"slice generation took $sliceMs ms")
  }
}
