package repro.hydra

import java.util
import java.util.OptionalLong
import org.apache.hadoop.fs.Path
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.metric.{CustomMetric, CustomSumMetric, CustomTaskMetric}
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.execution.vectorized.{ConstantColumnVector, OnHeapColumnVector}
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import org.apache.spark.sql.vectorized.{ColumnVector, ColumnarBatch}
import org.apache.spark.util.SerializableConfiguration
import repro.core.SparkJobs
import scala.jdk.CollectionConverters._

/** The Tuple Generator (§6), as a Spark DataSourceV2 source.
  *
  * In the paper, HYDRA's `datagen` feature replaces PostgreSQL's scan
  * operator with on-demand generation from the relation summary. The Spark
  * analogue is a `TableProvider`: reading
  * `spark.read.format(classOf[SummarySource].getName)
  *   .option("relation", r).load(summaryPath)`
  * yields a DataFrame whose scan produces tuples directly from the summary
  * — PK `r` is the row number, every other attribute is found by a
  * cumulative-NumTuples lookup — so databases of arbitrary size exist only
  * at query-execution time. The scan is columnar: a batch covers PKs of one
  * summary row, so its non-key columns are constants
  * ([[SummaryBatchReader]]). It reports the SQL metrics `generatedRows` and
  * `generatedBatches`.
  *
  * Options: `path` (summary file), `relation`, `startPk`/`endPk` (generate
  * only PKs in `(startPk, endPk]` — used for slicing unboundedly large
  * regenerated relations; whole numbers with
  * `0 ≤ startPk ≤ endPk ≤ total`, else the scan fails, naming the relation
  * and the option). The scan cuts its PK window into
  * `min(16, ceil(rows / 65536))` splits ([[SummaryScan.defaultSplits]]),
  * and reports the window's exact row count to Catalyst, so joins over
  * regenerated relations are planned with real sizes (e.g. dimensions are
  * broadcast).
  */
class SummarySource extends TableProvider {
  override def inferSchema(options: CaseInsensitiveStringMap): StructType =
    SummarySource.schemaFor(SummarySource.loadRelation(options.asScala.toMap))

  override def getTable(schema: StructType, partitioning: Array[Transform],
                        properties: util.Map[String, String]): Table =
    new SummaryTable(schema, properties.asScala.toMap)

  override def supportsExternalMetadata(): Boolean = false
}

object SummarySource {
  def loadRelation(options: Map[String, String]): RelationSummary = {
    val opts = options.map { case (k, v) => k.toLowerCase -> v }
    val path = opts.getOrElse("path", sys.error("SummarySource: missing 'path' option"))
    val rel = opts.getOrElse("relation", sys.error("SummarySource: missing 'relation' option"))
    DbSummary.load(path).byName.getOrElse(rel, sys.error(s"no relation $rel in summary $path"))
  }

  def schemaFor(r: RelationSummary): StructType =
    StructType(
      StructField(r.pkCol, LongType, nullable = false) +:
      (r.attrCols.map(StructField(_, DoubleType, nullable = false)) ++
       r.fkCols.map(StructField(_, LongType, nullable = false))))
}

private[hydra] class SummaryTable(tableSchema: StructType, props: Map[String, String])
    extends Table with SupportsRead {
  override def name(): String = s"hydra_summary_${props.getOrElse("relation", "?")}"
  override def schema(): StructType = tableSchema
  override def capabilities(): util.Set[TableCapability] =
    util.EnumSet.of(TableCapability.BATCH_READ)
  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder = {
    val merged = props ++ options.asScala.toMap
    new ScanBuilder {
      override def build(): Scan = new SummaryScan(tableSchema, merged)
    }
  }
}

private[hydra] class SummaryScan(tableSchema: StructType, options: Map[String, String])
    extends Scan with Batch with SupportsReportStatistics {
  private val rel = SummarySource.loadRelation(options)
  private val opts = options.map { case (k, v) => k.toLowerCase -> v }
  private def pkOption(name: String, default: Long): Long = {
    val pk = opts.get(name.toLowerCase).fold(default)(v => v.toLongOption.getOrElse(throw new IllegalArgumentException(
      s"relation ${rel.relation}: option $name = '$v' is not a whole number")))
    require(pk >= 0 && pk <= rel.total,
      s"relation ${rel.relation}: option $name = $pk is outside 0..${rel.total} (its PKs are 1..${rel.total})")
    pk
  }
  private val startPk = pkOption("startPk", 0L)
  private val endPk = pkOption("endPk", rel.total)
  require(startPk <= endPk,
    s"relation ${rel.relation}: PK window ($startPk, $endPk] is reversed: option startPk is above endPk")
  private val span = endPk - startPk

  override def readSchema(): StructType = tableSchema
  override def toBatch: Batch = this
  override def columnarSupportMode(): Scan.ColumnarSupportMode = Scan.ColumnarSupportMode.SUPPORTED
  override def supportedCustomMetrics(): Array[CustomMetric] =
    Array(new GeneratedRowsMetric, new GeneratedBatchesMetric)

  override def estimateStatistics(): Statistics = new Statistics {
    override def numRows(): OptionalLong = OptionalLong.of(span)
    // §7.4 totals reach ~1e16 rows: saturate rather than wrap.
    override def sizeInBytes(): OptionalLong = OptionalLong.of(
      try Math.multiplyExact(span, readSchema().defaultSize.toLong)
      catch { case _: ArithmeticException => Long.MaxValue })
  }

  override def planInputPartitions(): Array[InputPartition] =
    SummaryScan.splits(startPk, endPk, SummaryScan.defaultSplits(span))
      .map { case (s, e) => SummaryInputPartition(rel, s, e) }.toArray

  override def createReaderFactory(): PartitionReaderFactory = new SummaryReaderFactory
}

private[hydra] object SummaryScan {
  /** ⌈a / b⌉ for a ≥ 0, b > 0, without the overflow of `(a + b - 1) / b`. */
  def ceilDiv(a: Long, b: Long): Long = a / b + (if (a % b == 0) 0 else 1)

  /** Splits of a window of `span` PKs: one per 65 536 PKs, at most 16, so
    * that a small relation is one task.
    */
  def defaultSplits(span: Long): Int = math.min(16L, ceilDiv(span, 65536)).toInt

  /** PKs `(start, end]` cut into at most `parts` non-empty windows of
    * ⌈span / parts⌉ PKs, in PK order; none if the window is empty.
    */
  def splits(start: Long, end: Long, parts: Int): Vector[(Long, Long)] = {
    val span = math.max(0L, end - start)
    val n = math.max(1, math.min(parts.toLong, math.max(1L, span)).toInt)
    val chunk = ceilDiv(span, n)
    // Offsets stay within the window, so no bound wraps near Long.MaxValue:
    // i * chunk ≤ span whenever span ≥ n², and otherwise
    // i * chunk < span + n < 2^62 + 2^31.
    Vector.tabulate(n) { i =>
      val off = math.min(span, i * chunk)
      (start + off, start + off + math.min(chunk, span - off))
    }.filter { case (s, e) => e > s }
  }
}

/** PK range `(start, end]` of one generated split; carries the (tiny)
  * summary so executors need no external state.
  */
private[hydra] final case class SummaryInputPartition(
    rel: RelationSummary, start: Long, end: Long) extends InputPartition

private[hydra] class SummaryReaderFactory extends PartitionReaderFactory {
  override def supportColumnarReads(partition: InputPartition): Boolean = true

  override def createReader(partition: InputPartition): PartitionReader[InternalRow] =
    throw new UnsupportedOperationException(
      s"relation ${partition.asInstanceOf[SummaryInputPartition].rel.relation}: the summary scan is columnar only")

  override def createColumnarReader(partition: InputPartition): PartitionReader[ColumnarBatch] = {
    val p = partition.asInstanceOf[SummaryInputPartition]
    new SummaryBatchReader(p.rel, p.start, p.end)
  }
}

/** Generates the tuples of PKs `(start, end]` in batches of at most
  * [[SummaryBatchReader.BatchRows]] rows that never cross a summary row:
  * within a batch every attribute and FK is one constant, set once per
  * summary row, and the PK counts up by one (§6). The batch and its vectors
  * are reused from one `next()` to the next.
  */
private[hydra] class SummaryBatchReader(rel: RelationSummary, start: Long, end: Long)
    extends PartitionReader[ColumnarBatch] {
  import SummaryBatchReader.BatchRows

  private val pks = new OnHeapColumnVector(BatchRows, LongType)
  private val attrs = rel.attrCols.map(_ => new ConstantColumnVector(BatchRows, DoubleType))
  private val fks = rel.fkCols.map(_ => new ConstantColumnVector(BatchRows, LongType))
  private val batch = new ColumnarBatch((pks +: (attrs ++ fks)).toArray[ColumnVector])
  private val runs = rel.runs(start, end)
  private var pk = start // last PK generated
  private var runEnd = start // the current summary row's run ends at this PK
  private var batches = 0L

  override def next(): Boolean = {
    if (pk == runEnd && runs.hasNext) {
      val (i, s, e) = runs.next()
      val (a, f, _) = rel.rows(i)
      var k = 0
      while (k < a.size) { attrs(k).setDouble(a(k)); k += 1 }
      k = 0
      while (k < f.size) { fks(k).setLong(f(k)); k += 1 }
      pk = s; runEnd = e
    }
    if (pk == runEnd) false
    else {
      val n = math.min(BatchRows.toLong, runEnd - pk).toInt
      var k = 0
      while (k < n) { pks.putLong(k, pk + 1 + k); k += 1 }
      batch.setNumRows(n)
      pk += n
      batches += 1
      true
    }
  }

  override def get(): ColumnarBatch = batch

  override def currentMetricsValues(): Array[CustomTaskMetric] = Array(
    SummaryBatchReader.taskMetric(GeneratedRowsMetric.Name, pk - start),
    SummaryBatchReader.taskMetric(GeneratedBatchesMetric.Name, batches))

  override def close(): Unit = batch.close()
}

private[hydra] object SummaryBatchReader {
  /** Spark's default columnar batch size. */
  val BatchRows = 4096

  def taskMetric(metric: String, v: Long): CustomTaskMetric = new CustomTaskMetric {
    override def name(): String = metric
    override def value(): Long = v
  }
}

/** SQL metric of the summary scan: tuples generated. */
class GeneratedRowsMetric extends CustomSumMetric {
  override def name(): String = GeneratedRowsMetric.Name
  override def description(): String = "generated rows"
}

object GeneratedRowsMetric { val Name = "generatedRows" }

/** SQL metric of the summary scan: columnar batches emitted. */
class GeneratedBatchesMetric extends CustomSumMetric {
  override def name(): String = GeneratedBatchesMetric.Name
  override def description(): String = "generated batches"
}

object GeneratedBatchesMetric { val Name = "generatedBatches" }

/** Convenience entry points around [[SummarySource]]. */
object TupleGenerator {

  /** Dynamically regenerated relation as a DataFrame (DSv2 scan). An
    * unset `startPk` or `endPk` leaves that option at its [[SummarySource]]
    * default.
    */
  def dataFrame(spark: SparkSession, summaryPath: String, relation: String,
                startPk: Option[Long] = None, endPk: Option[Long] = None): DataFrame =
    spark.read
      .format(classOf[SummarySource].getName)
      .option("relation", relation)
      .options((startPk.map("startPk" -> _.toString) ++ endPk.map("endPk" -> _.toString)).toMap)
      .load(summaryPath)

  /** Materialize every relation of a summary as Parquet ("static" mode),
    * without generating a tuple ([[SummaryParquet]]). Each relation is one
    * Spark job, and the relations run concurrently ([[SparkJobs.perRelation]]).
    * `$outDir/$rel` is deleted first, then holds one `part-NNNNN.parquet`
    * per split of its PKs (at most `defaultParallelism` splits, cut as the
    * scan cuts them; one schema-only file for an empty relation) and a
    * `_SUCCESS` marker once all of them are written. Tasks write through
    * the driver's Hadoop configuration, so any Hadoop file system works.
    */
  def materialize(spark: SparkSession, summaryPath: String, outDir: String): Unit = {
    val db = DbSummary.load(summaryPath)
    val sc = spark.sparkContext
    val conf = new SerializableConfiguration(sc.hadoopConfiguration)
    SparkJobs.perRelation(sc, db.relations.map(_.relation)) { name =>
      val rel = db.byName(name)
      val dir = new Path(outDir, name)
      val fs = dir.getFileSystem(conf.value)
      fs.delete(dir, true)
      fs.mkdirs(dir)
      val parts = math.min(sc.defaultParallelism, SummaryScan.defaultSplits(rel.total))
      val windows = SummaryScan.splits(0, rel.total, parts)
      val splits = if (windows.isEmpty) Vector((0L, 0L)) else windows
      val target = dir.toString
      sc.parallelize(splits.zipWithIndex, splits.size).foreach { case ((start, end), i) =>
        SummaryParquet.writeSplit(rel, start, end, new Path(target, f"part-$i%05d.parquet"), conf.value)
      }
      fs.create(new Path(dir, "_SUCCESS"), true).close()
    }
    ()
  }
}
