package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.json4s.JObject
import org.json4s.JsonDSL._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One timed interval. `parent` is the id of the enclosing span, -1 for a
  * pass. `layer` spans wrap one call into the pipeline's public API; the
  * others are the benchmark's own stages.
  */
final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long,
                      workload: String, pass: Int, layer: Boolean) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Records spans in memory. Pass and stage spans are always recorded (a few
  * per pass); layer spans only in traced passes, so untraced passes time the
  * pipeline as a user calls it.
  */
final class Tracer(workload: String, sc: SparkContext) {
  private val spans = mutable.ArrayBuffer[Span]()
  private var open = List.empty[Int]
  private var passNo = 0
  private var traced = false

  def isTraced: Boolean = traced

  def pass[A](n: Int, tracing: Boolean)(body: => A): A = {
    passNo = n; traced = tracing
    record("pass", layer = false)(body)
  }

  /** A benchmark stage. Spark jobs started inside it are labelled with
    * `pass/stage`, so [[SparkCounters]] can attribute their tasks.
    */
  def stage[A](name: String)(body: => A): A = {
    sc.setLocalProperty(SparkCounters.LabelKey, s"$passNo/$name")
    try record(name, layer = false)(body)
    finally sc.setLocalProperty(SparkCounters.LabelKey, null)
  }

  /** A call into one of the pipeline's layers; timed in traced passes only. */
  def layer[A](name: String)(body: => A): A =
    if (traced) record(name, layer = true)(body) else body

  private def record[A](name: String, layer: Boolean)(body: => A): A = {
    val id = spans.size
    val parent = open.headOption.getOrElse(-1)
    spans += null
    open = id :: open
    val t0 = System.nanoTime()
    try body
    finally {
      spans(id) = Span(id, name, parent, t0, System.nanoTime(), workload, passNo, layer)
      open = open.tail
    }
  }

  def all: Vector[Span] = spans.iterator.filter(_ != null).toVector

  /** Spans of pass `n` that have ended. */
  def ofPass(n: Int): Vector[Span] = spans.iterator.filter(s => s != null && s.pass == n).toVector
}

object Tracer {
  /** Duration of `s` minus the time its direct children cover (children of
    * one span run one after another on the driver thread).
    */
  def selfSeconds(s: Span, spans: Seq[Span]): Double =
    s.seconds - spans.iterator.filter(_.parent == s.id).map(_.seconds).sum

  /** The spans of stage `name` in a pass, one per timed repetition. */
  def stageSpans(spans: Seq[Span], name: String): Seq[Span] =
    spans.filter(s => !s.layer && s.name == name)

  /** The fastest timed repetition of stage `name` in a pass. On a shared
    * host the speed of a core swings with the load of other tenants, by up
    * to 1.5x over seconds; the fastest repetition is what the stage costs
    * when its cores are not contended.
    */
  def fastest(spans: Seq[Span], name: String): Option[Span] =
    stageSpans(spans, name).minByOption(_.seconds)

  /** Seconds of the fastest timed repetition of stage `name`, 0 if none ran. */
  def stageSeconds(spans: Seq[Span], name: String): Double =
    fastest(spans, name).fold(0.0)(_.seconds)

  /** Summed self times of the child layer spans that `pick` selects, in the
    * fastest timed repetition of stage `stage`.
    */
  def layerSelf(spans: Seq[Span], stage: String)(pick: Span => Boolean): Double =
    fastest(spans, stage).fold(0.0) { st =>
      spans.iterator.filter(s => s.layer && s.parent == st.id && pick(s))
        .map(selfSeconds(_, spans)).sum
    }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def toJson(s: Span): JObject =
    ("id" -> s.id) ~ ("name" -> s.name) ~ ("parent" -> s.parent) ~
      ("start_ns" -> s.startNs) ~ ("end_ns" -> s.endNs) ~
      ("workload" -> s.workload) ~ ("pass" -> s.pass) ~ ("layer" -> s.layer)
}

/** Spark work per stage label: jobs, input records and executor run time,
  * collected by a listener that the benchmark registers.
  */
final class SparkCounters extends SparkListener {
  import SparkCounters.Counts

  private val labelOfStage = mutable.Map[Int, String]()
  private val counts = mutable.Map[String, Counts]().withDefaultValue(Counts(0, 0, 0))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val label = Option(e.properties).flatMap(p => Option(p.getProperty(SparkCounters.LabelKey)))
      .getOrElse("")
    e.stageIds.foreach(labelOfStage(_) = label)
    val c = counts(label)
    counts(label) = c.copy(jobs = c.jobs + 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val label = labelOfStage.getOrElse(e.stageId, "")
    val m = e.taskMetrics
    val c = counts(label)
    counts(label) = c.copy(
      recordsRead = c.recordsRead + (if (m == null) 0 else m.inputMetrics.recordsRead),
      runMillis = c.runMillis + (if (m == null) 0 else m.executorRunTime))
  }

  /** Counts of stage `stage` in pass `pass`, once every event has arrived. */
  def of(sc: SparkContext, pass: Int, stage: String): Counts = {
    org.apache.spark.ListenerBusAccess.drain(sc)
    synchronized(counts(s"$pass/$stage"))
  }
}

object SparkCounters {
  val LabelKey = "perfbench.stage"

  final case class Counts(jobs: Long, recordsRead: Long, runMillis: Long)
}

/** JVM counters read through JMX. */
object Jvm {
  private val heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).toVector

  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  /** Bytes allocated so far by the calling thread. */
  def threadAllocatedBytes: Long = ManagementFactory.getThreadMXBean match {
    case t: com.sun.management.ThreadMXBean => t.getCurrentThreadAllocatedBytes
    case _ => 0L
  }

  def resetPeakHeap(): Unit = heapPools.foreach(_.resetPeakUsage())

  private val compiler = ManagementFactory.getCompilationMXBean

  /** Waits until the JIT has compiled nothing for `quietMs`, at most
    * `maxMs`. Code that an earlier stage made hot is compiled in the
    * background, and would otherwise slow the next stage by a varying amount.
    */
  def awaitJitQuiet(quietMs: Long = 100, maxMs: Long = 3000): Unit = {
    val t0 = System.nanoTime()
    def elapsedMs = (System.nanoTime() - t0) / 1000000
    var last = compiler.getTotalCompilationTime
    var quietSince = elapsedMs
    while (elapsedMs - quietSince < quietMs && elapsedMs < maxMs) {
      Thread.sleep(25)
      val now = compiler.getTotalCompilationTime
      if (now != last) { last = now; quietSince = elapsedMs }
    }
  }

  /** Sum of the heap pools' peak use since the last reset. */
  def peakHeapMb: Double = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
}
