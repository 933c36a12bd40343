package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SparkSpec
import repro.core._
import repro.datasynth.GridPartition
import repro.hydra.LPFormulator
import repro.tpcds.{TpcdsLite, TpcdsWorkload}
import repro.job.{JobLite, JobWorkload}

/** Shared, lazily-built state for the benchmark suites: one client database
  * per benchmark schema and the CC sets of each workload. Building CCs means
  * executing every workload query on Spark (the AQP step), so it is done
  * once per JVM and reused by all bench suites.
  */
object BenchEnv {
  lazy val spark: SparkSession = SparkSpec.shared

  /** "Client" scale factor for CC extraction (≈ the paper's 100 GB role). */
  val sf = 0.01

  lazy val tpcdsDb: Map[String, DataFrame] = TpcdsLite.clientDb(spark, sf)
  lazy val jobDb: Map[String, DataFrame] = JobLite.clientDb(spark, sf)

  lazy val wlc: Seq[Query] = TpcdsWorkload.wlc()
  lazy val wls: Seq[Query] = TpcdsWorkload.wls()
  lazy val jobWl: Seq[Query] = JobWorkload.queries()

  lazy val wlcCcs: Seq[CC] = Aqp.extractWorkloadCCs(TpcdsLite.schema, wlc, tpcdsDb)
  lazy val wlsCcs: Seq[CC] = Aqp.extractWorkloadCCs(TpcdsLite.schema, wls, tpcdsDb)
  lazy val jobCcs: Seq[CC] = Aqp.extractWorkloadCCs(JobLite.schema, jobWl, jobDb)

  /** The WLs CCs and the client's relation sizes on a database `k` times
    * larger (the database-size axis of Figs 14 and 15 and §7.4); a count
    * that overflows a Long fails, naming its relation.
    */
  def wlsScaled(k: Long): (Seq[CC], Map[String, Long]) =
    (wlsCcs.map(_.scaled(k)),
     TpcdsLite.rowCounts(sf).map { case (r, n) => r -> CC.scaledCount(r, n, k) })

  /** Render one reproduced table; benches print these and EXPERIMENTS.md
    * records them next to the paper's numbers.
    */
  def table(title: String, headers: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val all = headers +: rows
    val widths = headers.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    println(s"\n== $title ==")
    println(fmt(headers)); println(sep)
    rows.foreach(r => println(fmt(r)))
    println()
  }

  /** Print the log10(card) histogram of `ccs` (Figs 9 and 16); returns the
    * number of buckets.
    */
  def cardinalityHistogram(title: String, ccs: Seq[CC]): Int = {
    def log10Bucket(v: Long): Int = if (v <= 0) 0 else math.log10(v.toDouble).toInt
    val buckets = ccs.groupBy(c => log10Bucket(c.card)).toSeq.sortBy(_._1)
    table(title, Seq("log10(card) bucket", "num CCs"),
      buckets.map { case (b, cs) => Seq(s"10^$b..10^${b + 1}", cs.size.toString) })
    buckets.size
  }

  /** LP variables per relation: Hydra regions and DataSynth grid cells
    * (Figs 12 and 17).
    */
  def variableCounts(schema: SchemaDef, ccs: Seq[CC]): Seq[(String, Int, BigInt)] = {
    val byRel = ccs.groupBy(_.relation)
    schema.relations.map { r =>
      val rc = byRel.getOrElse(r.name, Nil)
      (r.name, LPFormulator.variableCount(schema, r.name, rc),
        GridPartition.variableCount(schema, rc))
    }
  }

  /** The middle value of `xs` (the upper one of the two middles if `xs`
    * has an even size).
    */
  def median[T: Ordering](xs: Seq[T]): T = xs.sorted.apply(xs.size / 2)

  /** The `q`-quantile of `xs` (`0 <= q <= 1`): the value at index
    * ⌊q·(n − 1)⌋ of `xs` sorted.
    */
  def percentile[T: Ordering](xs: Seq[T], q: Double): T = xs.sorted.apply((q * (xs.size - 1)).toInt)

  def time[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1000000)
  }
}
