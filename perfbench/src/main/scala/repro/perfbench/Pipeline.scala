package repro.perfbench

import java.nio.file.{Files, Path}
import java.util.Comparator
import org.apache.hadoop.fs.{Path => HPath}
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.util.HadoopInputFile
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{col, count, lit, sum}
import repro.core.{Aqp, CC, Query, ViewGraph}
import repro.hydra._
import repro.hydra.LPFormulator.{ViewLp, ViewLpResult}
import repro.lp.Simplex
import scala.collection.mutable
import scala.util.control.NonFatal

/** What one pass measured and whether its outputs were right. */
final case class PassResult(
    stageSeconds: Map[String, Double],
    supplyRows: Long,
    ccExactPct: Double,
    riExtraTuples: Long,
    failures: Vector[String],
    counters: Map[String, Double],
) {
  def ok: Boolean = failures.isEmpty
}

/** One pass of the HYDRA pipeline, as a client and a vendor run it:
  * AQP capture on the client database → summary build → summary save/load →
  * DSv2 supply scan → workload replay on the regenerated database → parquet
  * materialization. The client captures the workload's queries in their
  * own order on its database `client`; the replay sends them in
  * `replayOrder`. Every pass checks its outputs. Files go to a fresh
  * directory under `tmpRoot` that the pass removes.
  */
final class Pipeline(spark: SparkSession, wl: Workload, client: Map[String, DataFrame],
                     replayOrder: Seq[Query], tmpRoot: Path, tracer: Tracer,
                     sparkCounters: Option[SparkCounters]) {
  import Pipeline._

  def run(n: Int, traced: Boolean): PassResult = {
    val dir = Files.createTempDirectory(tmpRoot, s"pass$n-")
    try tracer.pass(n, traced)(body(n, dir))
    catch {
      case NonFatal(e) =>
        PassResult(Map.empty, 0, 0, 0, Vector(s"pass $n threw $e"), Map.empty)
    } finally deleteTree(dir)
  }

  private def body(n: Int, dir: Path): PassResult = {
    val failures = Vector.newBuilder[String]
    def check(ok: Boolean, what: => String): Unit = if (!ok) failures += what
    val gc0 = Jvm.gcSeconds
    if (tracer.isTraced) Jvm.resetPeakHeap()

    val captured = stage("aqp") {
      tracer.layer("core.aqp")(Aqp.extractWorkloadCCs(wl.schema, wl.queries, client))
    }
    val ccs = wl.vendorCcs(captured)

    val views = mutable.ArrayBuffer[ViewTrace]()
    def buildSummary(): Hydra.Result = {
      views.clear()
      if (tracer.isTraced) tracedSummary(ccs, views)
      else Hydra.buildSummary(wl.schema, ccs, wl.fallbackTotals)
    }
    // A single thread's speed on a shared host swings by up to 1.5x for
    // seconds at a time, so the summary build, a short single-threaded
    // stage, is timed in blocks spread over the pass (one here, and one after
    // each of supply, replay and materialization), and its fastest build
    // counts.
    def summaryBlock(): Hydra.Result = repeated("summary", 0, 0, 1, SummaryBlockSeconds)(buildSummary())
    val res = repeated("summary", SummaryWarmups, SummaryWarmupSeconds, 1, SummaryBlockSeconds)(buildSummary())
    res.lpStats.foreach(s => check(s.exact, s"LP of view ${s.relation} is not exact"))

    val path = dir.resolve("db.summary").toString
    val loaded = stage("summary_io") {
      tracer.layer("hydra.summary_save")(DbSummary.save(res.summary, path))
      tracer.layer("hydra.summary_load")(DbSummary.load(path))
    }
    check(loaded == res.summary, "saved summary does not load back equal")
    checkForeignKeys(res.summary).foreach(failures += _)

    val supplied = repeated("supply", 1, 0.0, SupplyReps, SupplySeconds) {
      wl.facts.map(rel => rel -> tracer.layer("hydra.scan")(supplyScan(path, rel)))
    }
    summaryBlock()
    supplied.foreach { case (rel, row) => checkScan(res.summary.byName(rel), row).foreach(failures += _) }

    val replayed = stage("replay") {
      val frames = tracer.layer("hydra.dataframe") {
        wl.schema.relations.map(r => r.name -> TupleGenerator.dataFrame(spark, path, r.name)).toMap
      }
      tracer.layer("core.aqp")(Aqp.extractWorkloadCCs(wl.schema, replayOrder, frames))
    }
    summaryBlock()
    val replayedBy = replayed.map(c => c.dedupKey -> c.card).toMap
    check(replayedBy.size == ccs.size, s"replay gave ${replayedBy.size} CCs, capture ${ccs.size}")
    ccs.foreach { cc =>
      val got = replayedBy.getOrElse(cc.dedupKey, -1L)
      val want = res.ccCount(cc)
      val slack = res.extraTuples.getOrElse(cc.relation, 0L)
      check(got == want, s"replayed ${describe(cc)} = $got, summary says $want")
      check(got >= cc.card && got <= cc.card + slack,
        s"replayed ${describe(cc)} = $got outside [${cc.card}, ${cc.card + slack}]")
    }

    val out = dir.resolve("parquet").toString
    stage("materialize") {
      tracer.layer("hydra.materialize")(TupleGenerator.materialize(spark, path, out))
    }
    summaryBlock()
    res.summary.relations.foreach { r =>
      val rows = parquetRows(s"$out/${r.relation}")
      check(rows == r.total, s"parquet ${r.relation} has $rows rows, summary ${r.total}")
    }

    val spans = tracer.ofPass(n)
    val builds = Tracer.stageSpans(spans, "summary").map(_.seconds * 1e3)
    Console.err.println(f"[perfbench] pass $n%d summary: ${builds.size}%d timed builds, " +
      f"fastest ${builds.min}%.1f ms, median ${Tracer.median(builds)}%.1f ms")
    val exact = ccs.count(cc => replayedBy.get(cc.dedupKey).contains(cc.card))
    val counters =
      if (!tracer.isTraced) Map.empty[String, Double]
      else layerCounters(n, spans, captured.size, res, views.toVector, supplied, replayed,
        Files.size(dir.resolve("db.summary")), treeBytes(dir.resolve("parquet")), Jvm.gcSeconds - gc0)
    PassResult(
      stageSeconds = StageNames.map(s => s -> Tracer.stageSeconds(spans, s)).toMap,
      supplyRows = supplied.map(_._2.getLong(0)).sum,
      ccExactPct = 100.0 * exact / ccs.size,
      riExtraTuples = res.extraTuples.values.sum,
      failures = failures.result(),
      counters = counters,
    )
  }

  /** Runs stage `name` untimed, each run in a `<name>.warmup` span, at least
    * `warmups` times and until `warmupSeconds` have passed, so that a short
    * stage is compiled before it is timed; then at least `minReps` times and
    * until the timed runs have taken `minSeconds`. Returns the last result.
    * The stage's time is its fastest timed run.
    */
  private def repeated[A](name: String, warmups: Int, warmupSeconds: Double, minReps: Int,
                          minSeconds: Double)(body: => A): A = {
    if (warmups > 0) {
      settle()
      val w0 = System.nanoTime()
      var n = 0
      while (n < warmups || (System.nanoTime() - w0) / 1e9 < warmupSeconds) {
        tracer.stage(s"$name.warmup")(body)
        n += 1
      }
    }
    settle()
    val t0 = System.nanoTime()
    var result = tracer.stage(name)(body)
    var reps = 1
    while (reps < MaxReps && (reps < minReps || (System.nanoTime() - t0) / 1e9 < minSeconds)) {
      result = tracer.stage(name)(body)
      reps += 1
    }
    result
  }

  /** Stage `name`, timed once. */
  private def stage[A](name: String)(body: => A): A = {
    settle()
    tracer.stage(name)(body)
  }

  /** A full GC, then a wait until the JIT has caught up, so that neither the
    * garbage nor the compile backlog of earlier stages lands on the next
    * stage's clock.
    */
  private def settle(): Unit = {
    System.gc()
    Jvm.awaitJitQuiet()
  }

  /** `Hydra.buildSummary`, composed from the public calls it makes so that
    * each can be timed. Two calls are extra: `ViewGraph.subViews`, which
    * `regionPartitions` also makes, times the view graph on its own, and a
    * second `Simplex.feasible` on the same LP splits the root solve from
    * branch-and-bound. Both count as tracing overhead.
    */
  private def tracedSummary(ccs: Seq[CC], views: mutable.ArrayBuffer[ViewTrace]): Hydra.Result = {
    val byRel = ccs.groupBy(_.relation)
    val lps: Seq[ViewLpResult] = wl.schema.relations.map { r =>
      val relCcs = byRel.getOrElse(r.name, Nil)
      val total = relCcs.find(_.pred.isTrue).map(_.card)
        .getOrElse(wl.fallbackTotals(r.name))
      val nonTrue = relCcs.filterNot(_.pred.isTrue)
      val subs = tracer.layer("core.viewgraph")(ViewGraph.subViews(nonTrue))
      val (aligned, parts) =
        tracer.layer("hydra.partition")(LPFormulator.regionPartitions(wl.schema, r.name, relCcs))
      val lp = tracer.layer("hydra.lp_build") {
        LPFormulator.build(wl.schema, r.name, relCcs, total, aligned, parts)
      }
      val alloc0 = Jvm.threadAllocatedBytes
      val t0 = System.nanoTime()
      val res = tracer.layer("lp.solve")(LPFormulator.solveIntegral(lp))
      val solveS = (System.nanoTime() - t0) / 1e9
      val alloc = Jvm.threadAllocatedBytes - alloc0
      if (lp.subs.nonEmpty) tracer.layer("lp.root")(Simplex.feasible(lp.nVars, lp.eqs))
      views += ViewTrace(nonTrue, subs.size, lp, solveS, alloc)
      res
    }
    val gen = tracer.layer("hydra.merge")(SummaryGenerator.generate(wl.schema, lps))
    Hydra.Result(gen.viewTables, gen.summary, lps.map(_.stats).toVector, gen.extraTuples, 0, 0)
  }

  /** Row count of a parquet directory, from the file footers. */
  private def parquetRows(dir: String): Long = {
    val conf = spark.sparkContext.hadoopConfiguration
    val path = new HPath(dir)
    path.getFileSystem(conf).listStatus(path).iterator
      .filter(_.getPath.getName.endsWith(".parquet"))
      .map { st =>
        val reader = ParquetFileReader.open(HadoopInputFile.fromStatus(st, conf))
        try reader.getRecordCount finally reader.close()
      }.sum
  }

  /** Fig 15's scan: `count(*)` and the sum of every column of `rel`. */
  private def supplyScan(path: String, rel: String): Row = {
    val df = TupleGenerator.dataFrame(spark, path, rel)
    df.agg(count(lit(1)), df.columns.toIndexedSeq.map(c => sum(col(c))): _*).collect().head
  }

  /** Per-layer counts of a traced pass, taken outside the timed spans. */
  private def layerCounters(
      n: Int, spans: Vector[Span], capturedCcs: Int, res: Hydra.Result,
      views: Vector[ViewTrace], supplied: Seq[(String, Row)], replayed: Seq[CC],
      summaryBytes: Long, parquetBytes: Long, gcS: Double,
  ): Map[String, Double] = {
    val sc = spark.sparkContext
    val counts = sparkCounters.get
    val aqp = counts.of(sc, n, "aqp")
    val scan = counts.of(sc, n, "supply")
    val supplyReps = Tracer.stageSpans(spans, "supply").size.max(1)
    val replay = counts.of(sc, n, "replay")
    val optimal = views.map(v => optimalRegions(v.nonTrue)).sum.toDouble
    val aligned = views.map(_.lp.nVars).sum.toDouble
    def self(stage: String, names: String*) = Tracer.layerSelf(spans, stage)(s => names.contains(s.name))
    val rootS = self("summary", "lp.root")
    val solveS = self("summary", "lp.solve")
    val counted = replayed.map(_.card).sum.toDouble
    Map(
      "core.aqp_s" -> self("aqp", "core.aqp"),
      "core.aqp_spark_jobs" -> aqp.jobs.toDouble,
      "core.aqp_jobs_per_cc" -> aqp.jobs.toDouble / capturedCcs,
      "core.viewgraph_s" -> self("summary", "core.viewgraph"),
      "core.subviews" -> views.map(_.subViews).sum.toDouble,
      "hydra.partition_s" -> self("summary", "hydra.partition"),
      "hydra.regions_optimal" -> optimal,
      "hydra.regions_aligned" -> aligned,
      "hydra.align_blowup" -> (if (optimal > 0) aligned / optimal else 1.0),
      "hydra.lp_build_s" -> self("summary", "hydra.lp_build"),
      "hydra.lp_rows" -> views.map(_.lp.eqs.size).sum.toDouble,
      "hydra.lp_cols" -> aligned,
      "hydra.lp_nnz" -> views.map(_.lp.eqs.map(_.coeffs.size).sum).sum.toDouble,
      "lp.solve_s" -> solveS,
      "lp.solve_max_view_s" -> views.map(_.solveS).max,
      "lp.root_s" -> rootS,
      "lp.bb_s" -> math.max(0.0, solveS - rootS),
      "lp.solve_alloc_mb" -> views.map(_.allocBytes).sum / 1048576.0,
      "lp.exact_views" -> res.lpStats.count(_.exact).toDouble,
      "hydra.merge_s" -> self("summary", "hydra.merge"),
      "hydra.summary_rows" -> res.summary.relations.map(_.rows.size).sum.toDouble,
      "hydra.ri_extra_tuples" -> res.extraTuples.values.sum.toDouble,
      "hydra.summary_io_s" -> self("summary_io", "hydra.summary_save", "hydra.summary_load"),
      "hydra.summary_bytes" -> summaryBytes.toDouble,
      "hydra.scan_s" -> self("supply", "hydra.scan"),
      "hydra.scan_rows" -> scan.recordsRead.toDouble / supplyReps,
      "hydra.scan_task_s" -> scan.runMillis / 1e3 / supplyReps,
      "hydra.replay_rows_generated" -> replay.recordsRead.toDouble,
      "hydra.replay_generated_per_counted" ->
        (if (counted > 0) replay.recordsRead / counted else 0.0),
      "hydra.replay_task_s" -> replay.runMillis / 1e3,
      "hydra.materialize_s" -> self("materialize", "hydra.materialize"),
      "hydra.materialize_bytes" -> parquetBytes.toDouble,
      "jvm.gc_s" -> gcS,
      "jvm.peak_heap_mb" -> Jvm.peakHeapMb,
      "trace.extra_calls_s" -> Tracer.layerSelf(spans, "summary")(s =>
        s.name == "core.viewgraph" || s.name == "lp.root"),
    ) ++ TracedStages.flatMap { st =>
      Seq(
        s"trace.${st}_s" -> Tracer.stageSeconds(spans, st),
        s"trace.${st}_layers_s" -> Tracer.layerSelf(spans, st)(_ => true))
    }
  }

  /** Σ sizes of `RegionPartition.optimalPartition` over the view's sub-views:
    * the regions before shared-boundary alignment.
    */
  private def optimalRegions(nonTrue: Seq[CC]): Int =
    ViewGraph.subViews(nonTrue).map { s =>
      val dnfs = nonTrue.filter(_.pred.attrs.subsetOf(s.attrSet)).map(_.pred)
      RegionPartition.optimalPartition(LPFormulator.domainOf(wl.schema, s.attrs), s.attrs, dnfs).size
    }.sum

  /** Every FK value of the summary names an existing tuple of its target. */
  private def checkForeignKeys(s: DbSummary): Seq[String] =
    for {
      r <- s.relations
      (fkCol, i) <- r.fkCols.zipWithIndex
      target = wl.schema.byName(r.relation).fks.find(_.column == fkCol).get.target
      n = s.byName(target).total
      bad <- r.rows.iterator.map(_._2(i)).find(v => v < 1 || v > n).toSeq
    } yield s"${r.relation}.$fkCol = $bad outside [1, $n]"

  /** The scan's count and column sums against the summary: exact for the
    * PK and FK columns, to rounding for the attribute columns.
    */
  private def checkScan(r: RelationSummary, row: Row): Seq[String] = {
    val failures = Vector.newBuilder[String]
    val n = r.total
    if (row.getLong(0) != n) failures += s"scan of ${r.relation} gave ${row.getLong(0)} rows, summary $n"
    if (n > 0) {
      if (row.getLong(1) != n * (n + 1) / 2) failures += s"scan of ${r.relation}: wrong PK sum"
      r.attrCols.indices.foreach { i =>
        val want = r.rows.map { case (a, _, c) => a(i) * c }.sum
        val scale = r.rows.map { case (a, _, c) => math.abs(a(i)) * c }.sum.max(1.0)
        if (math.abs(row.getDouble(2 + i) - want) > 1e-9 * scale)
          failures += s"scan of ${r.relation}: sum of ${r.attrCols(i)} is ${row.getDouble(2 + i)}, want $want"
      }
      r.fkCols.indices.foreach { j =>
        val want = r.rows.map { case (_, f, c) => f(j) * c }.sum
        val got = row.getLong(2 + r.attrCols.size + j)
        if (got != want) failures += s"scan of ${r.relation}: sum of ${r.fkCols(j)} is $got, want $want"
      }
    }
    failures.result()
  }
}

object Pipeline {
  /** Stages of a pass, in order. */
  val StageNames: Seq[String] = Seq("aqp", "summary", "summary_io", "supply", "replay", "materialize")

  /** Stages whose traced time is reported with the self time of their layers. */
  val TracedStages: Seq[String] = Seq("aqp", "summary", "replay")

  /** Repetitions of the short stages in a pass: the summary build runs
    * untimed at least [[SummaryWarmups]] times and [[SummaryWarmupSeconds]],
    * then in four timed blocks of at least [[SummaryBlockSeconds]] each; the
    * supply scan runs once untimed, then at least [[SupplyReps]] times and
    * [[SupplySeconds]].
    */
  val SummaryWarmups = 2
  val SummaryWarmupSeconds = 1.0
  val SummaryBlockSeconds = 0.5
  val SupplyReps = 3
  val SupplySeconds = 2.0
  val MaxReps = 200

  /** What the traced summary build learned about one view. */
  final case class ViewTrace(nonTrue: Seq[CC], subViews: Int, lp: ViewLp, solveS: Double,
                             allocBytes: Long)

  def describe(cc: CC): String = s"CC ${cc.relation}[${cc.pred.toSql}]"

  def treeBytes(p: Path): Long =
    if (!Files.exists(p)) 0L
    else {
      val s = Files.walk(p)
      try s.filter(Files.isRegularFile(_)).mapToLong(Files.size(_)).sum() finally s.close()
    }

  def deleteTree(p: Path): Unit =
    if (Files.exists(p)) {
      val s = Files.walk(p)
      try s.sorted(Comparator.reverseOrder[Path]()).forEach(Files.delete(_)) finally s.close()
    }
}
