package repro.hydra

import java.util
import java.util.OptionalLong
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.CaseInsensitiveStringMap
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
  * at query-execution time.
  *
  * Options: `path` (summary file), `relation`, `numPartitions` (default
  * `min(16, ceil(rows / 65536))` splits of the PK window), `startPk`/`endPk`
  * (generate only PKs in `(startPk, endPk]` — used for slicing unboundedly
  * large regenerated relations). The scan reports the window's exact row
  * count to Catalyst, so joins over regenerated relations are planned with
  * real sizes (e.g. dimensions are broadcast).
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
  private val startPk = opts.get("startpk").map(_.toLong).getOrElse(0L)
  private val endPk = opts.get("endpk").map(_.toLong).getOrElse(rel.total)
  private val span = math.max(0L, endPk - startPk)
  // Without the option, one split per 65 536 rows, at most 16, so that a
  // small relation is one task.
  private val numPartitions = opts.get("numpartitions").map(_.toInt)
    .getOrElse(math.min(16L, SummaryScan.ceilDiv(span, 65536)).toInt)

  override def readSchema(): StructType = tableSchema
  override def toBatch: Batch = this

  override def estimateStatistics(): Statistics = new Statistics {
    override def numRows(): OptionalLong = OptionalLong.of(span)
    // §7.4 totals reach ~1e16 rows: saturate rather than wrap.
    override def sizeInBytes(): OptionalLong = OptionalLong.of(
      try Math.multiplyExact(span, readSchema().defaultSize.toLong)
      catch { case _: ArithmeticException => Long.MaxValue })
  }

  override def planInputPartitions(): Array[InputPartition] = {
    val parts = math.max(1, math.min(numPartitions.toLong, math.max(1L, span)).toInt)
    val chunk = SummaryScan.ceilDiv(span, parts)
    // Offsets stay within the window, so no bound wraps near Long.MaxValue:
    // i * chunk ≤ span whenever span ≥ parts², and otherwise
    // i * chunk < span + parts < 2^62 + 2^31.
    (0 until parts).iterator
      .map { i =>
        val off = math.min(span, i * chunk)
        SummaryInputPartition(rel, startPk + off, startPk + off + math.min(chunk, span - off))
      }
      .filter(p => p.end > p.start)
      .toArray[InputPartition]
  }

  override def createReaderFactory(): PartitionReaderFactory = new SummaryReaderFactory
}

private[hydra] object SummaryScan {
  /** ⌈a / b⌉ for a ≥ 0, b > 0, without the overflow of `(a + b - 1) / b`. */
  def ceilDiv(a: Long, b: Long): Long = a / b + (if (a % b == 0) 0 else 1)
}

/** PK range `(start, end]` of one generated split; carries the (tiny)
  * summary so executors need no external state.
  */
private[hydra] final case class SummaryInputPartition(
    rel: RelationSummary, start: Long, end: Long) extends InputPartition

private[hydra] class SummaryReaderFactory extends PartitionReaderFactory {
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] = {
    val p = partition.asInstanceOf[SummaryInputPartition]
    new SummaryPartitionReader(p.rel, p.start, p.end)
  }
}

/** Generates tuples for PKs in `(start, end]`: advance a cursor through the
  * summary's cumulative-count boundaries; all attribute values of a block
  * are constant, so generation is a pointer bump per tuple (§6).
  */
private[hydra] class SummaryPartitionReader(rel: RelationSummary, start: Long, end: Long)
    extends PartitionReader[InternalRow] {
  private val starts = rel.starts // starts(i) tuples precede row i
  private var pk = start
  private var rowIdx = {
    // First block covering pk = start + 1: greatest i with starts(i) < start+1.
    var lo = 0; var hi = rel.rows.size - 1
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (starts(mid) < start + 1) lo = mid else hi = mid - 1
    }
    lo
  }
  private var current: InternalRow = _

  override def next(): Boolean = {
    pk += 1
    if (pk > end || rel.rows.isEmpty) false
    else {
      while (pk > starts(rowIdx + 1)) rowIdx += 1
      val (attrs, fks, _) = rel.rows(rowIdx)
      val vals = new Array[Any](1 + attrs.size + fks.size)
      vals(0) = pk
      var i = 0
      while (i < attrs.size) { vals(1 + i) = attrs(i); i += 1 }
      var j = 0
      while (j < fks.size) { vals(1 + attrs.size + j) = fks(j); j += 1 }
      current = new GenericInternalRow(vals)
      true
    }
  }

  override def get(): InternalRow = current
  override def close(): Unit = ()
}

/** Convenience entry points around [[SummarySource]]. */
object TupleGenerator {

  /** Dynamically regenerated relation as a DataFrame (DSv2 scan). A
    * negative `numPartitions`, `startPk` or `endPk` leaves that option at
    * its [[SummarySource]] default.
    */
  def dataFrame(spark: SparkSession, summaryPath: String, relation: String,
                numPartitions: Int = -1, startPk: Long = -1, endPk: Long = -1): DataFrame = {
    var r = spark.read
      .format(classOf[SummarySource].getName)
      .option("relation", relation)
    if (numPartitions >= 0) r = r.option("numPartitions", numPartitions)
    if (startPk >= 0) r = r.option("startPk", startPk)
    if (endPk >= 0) r = r.option("endPk", endPk)
    r.load(summaryPath)
  }

  /** Materialize every relation of a summary as parquet ("static" mode). */
  def materialize(spark: SparkSession, summaryPath: String, outDir: String): Unit = {
    val db = DbSummary.load(summaryPath)
    db.relations.foreach { r =>
      dataFrame(spark, summaryPath, r.relation)
        .write.mode("overwrite").parquet(s"$outDir/${r.relation}")
    }
  }
}
