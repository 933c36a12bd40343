package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, count, lit, sum}
import org.json4s.JObject
import org.json4s.JsonDSL._
import org.json4s.jackson.JsonMethods.{compact, render}
import scala.collection.mutable
import scala.util.Random

/** The pipeline benchmark: one client, closed loop, one workload per JVM.
  *
  * Set-up starts Spark, then [[SetupReps]] times generates the workload and
  * the client database and scans every client relation; `setup_s` is the
  * median of those repetitions, and Spark's start time goes to the run
  * context. Then passes run back to back, the first one in a cold JVM,
  * until `--seconds` have elapsed; there is always at least one. A pass
  * times each stage once, except the short ones, which repeat (see
  * [[Pipeline]]). No warm-up pass runs: every spark-submit of the pipeline
  * starts a fresh JVM, so the cold pass is what a user waits for, and a
  * warm-up would make each run about half as long again.
  *
  * The last line of standard output is the result: the end-to-end metrics
  * (medians over the passes that passed their checks), or with `--trace 1`
  * the per-layer metrics of traced passes. A traced pass is the same pass
  * with spans around the calls into each layer; comparing its `trace.*_s`
  * stage times with the untraced run's gives the tracing overhead.
  *
  * `--seed` orders the queries of the replay, the tester's traffic on the
  * regenerated database; capture runs them in the workload's own order.
  * `--wl-seed` and `--db-seed` replace the workload's and the client
  * database's default seeds.
  */
object PipelineBench {

  final case class Options(
      workload: String = "",
      seed: Long = 1,
      seconds: Double = 10,
      trace: Boolean = false,
      threads: Int = 1,
      workDir: Path = Paths.get(".bench_build"),
      wlSeed: Option[Long] = None,
      dbSeed: Option[Long] = None,
      gitSha: String = "unknown",
  )

  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "aqp_s" -> "s", "summary_s" -> "s", "supply_mrows_s" -> "Mrows/s",
    "replay_s" -> "s", "materialize_s" -> "s", "cc_exact_pct" -> "%", "ri_extra_tuples" -> "count")

  /** Repetitions of the set-up that follows Spark's start. */
  val SetupReps = 3

  def main(args: Array[String]): Unit = {
    val o = parse(args.toList, Options())
    require(o.workload.nonEmpty, "--workload is required")
    val t0 = System.nanoTime()
    val spark = session(o)
    try run(o, spark, (System.nanoTime() - t0) / 1e9) finally spark.stop()
  }

  private def run(o: Options, spark: SparkSession, sparkStartS: Double): Unit = {
    val defaults = Workload.defaultSeeds.getOrElse(o.workload, Workload.Seeds(0, 0))
    val seeds = Workload.Seeds(o.wlSeed.getOrElse(defaults.workload), o.dbSeed.getOrElse(defaults.db))
    val setups = (1 to SetupReps).map { _ =>
      val t0 = System.nanoTime()
      val wl = Workload(o.workload, seeds)
      val client = wl.clientDb(spark)
      val bad = checkClient(wl, client)
      ((System.nanoTime() - t0) / 1e9, wl, client, bad)
    }
    val (_, wl, client, _) = setups.last
    val setupFailures = setups.flatMap(_._4)
    val setupS = median(setups.map(_._1))
    val replayOrder = new Random(o.seed).shuffle(wl.queries)
    val counters = if (o.trace) {
      val c = new SparkCounters
      spark.sparkContext.addSparkListener(c)
      Some(c)
    } else None
    // Pass directories that a killed run left behind.
    Pipeline.deleteTree(o.workDir.resolve("tmp"))
    val tmp = Files.createDirectories(o.workDir.resolve("tmp"))
    val tracer = new Tracer(wl.name, spark.sparkContext)
    val pipeline = new Pipeline(spark, wl, client, replayOrder, tmp, tracer, counters)

    val passes = mutable.ArrayBuffer[PassResult]()
    val start = System.nanoTime()
    while (passes.isEmpty || (System.nanoTime() - start) / 1e9 < o.seconds) {
      val p0 = System.nanoTime()
      passes += pipeline.run(passes.size + 1, o.trace)
      log(passes.size, o.trace, passes.last, (System.nanoTime() - p0) / 1e9)
    }
    setupFailures.foreach(f => Console.err.println(s"[perfbench] set-up: $f"))
    passes.zipWithIndex.foreach { case (r, i) =>
      r.failures.take(20).foreach(f => Console.err.println(s"[perfbench] pass ${i + 1}: $f"))
    }
    val good = passes.filter(_.ok).toSeq
    val metrics: Seq[(String, Double, String)] =
      if (good.isEmpty || setupFailures.nonEmpty) Nil
      else if (o.trace) perLayer(good)
      else endToEnd(setupS, good)

    val sc = spark.sparkContext
    val context =
      ("workload" -> wl.name) ~ ("git_sha" -> o.gitSha) ~
        ("nproc" -> Runtime.getRuntime.availableProcessors) ~
        ("task_threads" -> o.threads) ~
        ("default_parallelism" -> sc.defaultParallelism) ~
        ("driver_heap_mb" -> Runtime.getRuntime.maxMemory / 1048576) ~
        ("seeds" -> ("order" -> o.seed) ~ ("workload" -> seeds.workload) ~ ("client_db" -> seeds.db)) ~
        ("queries" -> wl.queries.size) ~ ("scale" -> wl.scale) ~
        ("spark_start_s" -> sparkStartS) ~ ("setup_reps" -> SetupReps) ~
        ("passes" -> passes.size) ~ ("samples" -> good.size) ~
        ("spark" -> sc.version)
    println(compact(render("context" -> context)))

    if (o.trace) {
      val out = Files.createDirectories(o.workDir.resolve("traces"))
        .resolve(s"${wl.name}-seed${o.seed}.jsonl")
      val lines = tracer.all.map(s => compact(render(Tracer.toJson(s)))).mkString("", "\n", "\n")
      Files.write(out, lines.getBytes(StandardCharsets.UTF_8))
      Console.err.println(s"[perfbench] spans written to $out")
    }

    // A failed set-up fails the run's first operation.
    val failed = passes.count(!_.ok).max(if (setupFailures.nonEmpty) 1 else 0)
    val result =
      ("correct" -> (failed == 0)) ~
        ("attempted" -> passes.size) ~
        ("failed" -> failed) ~
        ("metrics" -> JObject(metrics.map { case (k, v, u) =>
          k -> (("value" -> v) ~ ("unit" -> u))
        }.toList))
    println(compact(render(result)))
  }

  /** Row count and column sums of every client relation; the counts must
    * match the workload's client sizes.
    */
  private def checkClient(wl: Workload, client: Map[String, DataFrame]): Seq[String] =
    wl.schema.relations.flatMap { r =>
      val df = client(r.name)
      val n = df.agg(count(lit(1)), df.columns.toIndexedSeq.map(c => sum(col(c))): _*)
        .collect().head.getLong(0)
      val want = wl.clientRows(r.name)
      if (n == want) None else Some(s"client ${r.name} has $n rows, want $want")
    }

  /** One progress line per pass on standard error. */
  private def log(n: Int, traced: Boolean, r: PassResult, seconds: Double): Unit =
    Console.err.println(f"[perfbench] pass $n%d${if (traced) " traced" else ""} $seconds%.2f s: " +
      Pipeline.StageNames.map(s => f"$s ${r.stageSeconds.getOrElse(s, 0.0)}%.2f").mkString(", ") +
      (if (r.ok) "" else s" FAILED (${r.failures.size} checks)"))

  private def endToEnd(setupS: Double, ps: Seq[PassResult]): Seq[(String, Double, String)] = {
    def stage(s: String) = median(ps.map(_.stageSeconds(s)))
    val values = Map(
      "setup_s" -> setupS,
      "aqp_s" -> stage("aqp"),
      "summary_s" -> stage("summary"),
      "supply_mrows_s" -> median(ps.map(p => p.supplyRows / p.stageSeconds("supply") / 1e6)),
      "replay_s" -> stage("replay"),
      "materialize_s" -> stage("materialize"),
      "cc_exact_pct" -> median(ps.map(_.ccExactPct)),
      "ri_extra_tuples" -> median(ps.map(_.riExtraTuples.toDouble)),
    )
    EndToEnd.map { case (k, u) => (k, values(k), u) }
  }

  /** Medians over the traced passes of each layer metric. */
  private def perLayer(ps: Seq[PassResult]): Seq[(String, Double, String)] =
    ps.head.counters.keys.toSeq.sorted.map(k => (k, median(ps.map(_.counters(k))), unitOf(k)))

  def unitOf(metric: String): String =
    if (metric.endsWith("_s")) "s"
    else if (metric.endsWith("_mb")) "MB"
    else if (metric.endsWith("_bytes")) "bytes"
    else if (metric.endsWith("_blowup") || metric.endsWith("_per_cc") ||
             metric.endsWith("_per_counted")) "ratio"
    else "count"

  def median(xs: Seq[Double]): Double = Tracer.median(xs)

  private def session(o: Options): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[${o.threads}]")
      .appName("hydra-perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", o.workDir.resolve("spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", o.workDir.resolve("warehouse").toAbsolutePath.toString)
      .config("spark.sql.shuffle.partitions", o.threads.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  @annotation.tailrec
  private def parse(args: List[String], o: Options): Options = args match {
    case Nil => o
    case "--workload" :: v :: rest => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest => parse(rest, o.copy(trace = v == "1"))
    case "--threads" :: v :: rest => parse(rest, o.copy(threads = v.toInt))
    case "--work-dir" :: v :: rest => parse(rest, o.copy(workDir = Paths.get(v)))
    case "--wl-seed" :: v :: rest => parse(rest, o.copy(wlSeed = Some(v.toLong)))
    case "--db-seed" :: v :: rest => parse(rest, o.copy(dbSeed = Some(v.toLong)))
    case "--git-sha" :: v :: rest => parse(rest, o.copy(gitSha = v))
    case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
  }
}
