package repro.hydra

import java.io.ByteArrayOutputStream
import org.apache.hadoop.conf.Configuration
import org.apache.hadoop.fs.Path
import org.apache.parquet.bytes.{BytesInput, BytesUtils}
import org.apache.parquet.column.{ColumnDescriptor, Encoding, ParquetProperties}
import org.apache.parquet.column.page.DictionaryPage
import org.apache.parquet.column.statistics.Statistics
import org.apache.parquet.hadoop.{ParquetFileWriter, ParquetWriter}
import org.apache.parquet.hadoop.metadata.CompressionCodecName
import org.apache.parquet.hadoop.util.HadoopOutputFile
import org.apache.parquet.schema.{MessageType, Types}
import org.apache.parquet.schema.PrimitiveType.PrimitiveTypeName.{DOUBLE, INT64}
import scala.jdk.CollectionConverters._

/** Static mode (§6) without tuples: writes a PK window of a summarized
  * relation as one Parquet file straight from its summary rows.
  *
  * Every non-key column is constant across a summary row and the PK counts
  * up by one, which is the run-length case of a column store (Abadi, Madden
  * & Ferreira, SIGMOD 2006). So the file costs in proportion to the summary
  * rows it covers, not to its tuples. It has one row group, and every
  * column chunk has data pages of at most [[PageRows]] rows:
  *  - the PK is `DELTA_BINARY_PACKED`: blocks of 128 deltas of 1, each a
  *    minimum delta and four miniblocks of bit width 0;
  *  - every attribute and FK has a `PLAIN` dictionary page of the window's
  *    distinct values, then `RLE_DICTIONARY` pages with one RLE run per
  *    summary row.
  *
  * Pages and chunks carry exact min/max statistics, which readers use to
  * skip row groups and pages. The footer holds Spark's schema, so Spark
  * reads back [[SummarySource.schemaFor]]'s names, types and nullability.
  */
private[hydra] object SummaryParquet {

  /** Rows of a data page at most, so that no RLE run header (`count << 1`)
    * and no page's value count overflows an Int.
    */
  val PageRows: Int = 1 << 20

  /** The footer key under which Spark looks for a file's Spark schema. */
  val SparkSchemaKey = "org.apache.spark.sql.parquet.row.metadata"

  private def messageType(r: RelationSummary): MessageType = {
    val b = Types.buildMessage().required(INT64).named(r.pkCol)
    r.attrCols.foreach(b.required(DOUBLE).named(_))
    r.fkCols.foreach(b.required(INT64).named(_))
    b.named("spark_schema")
  }

  /** Writes PKs `(start, end]` of `rel` to `file`, replacing any file there,
    * so that a retried task rewrites its own file. An empty window writes a
    * file with the schema and no row group.
    */
  def writeSplit(rel: RelationSummary, start: Long, end: Long, file: Path, conf: Configuration): Unit = {
    val schema = messageType(rel)
    val cols = schema.getColumns.asScala.toVector
    val writer = new ParquetFileWriter(HadoopOutputFile.fromPath(file, conf), schema,
      ParquetFileWriter.Mode.OVERWRITE, ParquetWriter.DEFAULT_BLOCK_SIZE, 0, null,
      ParquetProperties.builder().build())
    writer.start()
    if (end > start) {
      val runs = rel.runs(start, end).toVector
      val pages = Iterator.iterate(start)(_ + PageRows).takeWhile(_ < end)
        .map(s => (s, math.min(end, s + PageRows))).toVector
      writer.startBlock(end - start)
      writer.startColumn(cols(0), end - start, CompressionCodecName.UNCOMPRESSED)
      pages.foreach { case (s, e) =>
        val stats: Statistics[_] = Statistics.createStats(cols(0).getPrimitiveType)
        stats.updateStats(s + 1)
        stats.updateStats(e)
        writePage(writer, (e - s).toInt, deltaPks(s + 1, (e - s).toInt), stats, Encoding.DELTA_BINARY_PACKED)
      }
      writer.endColumn()
      rel.attrCols.indices.foreach { k =>
        writeDictionaryColumn(writer, cols(1 + k), runs, pages,
          i => java.lang.Double.doubleToRawLongBits(rel.rows(i)._1(k)),
          (stats, bits) => stats.updateStats(java.lang.Double.longBitsToDouble(bits)))
      }
      rel.fkCols.indices.foreach { k =>
        writeDictionaryColumn(writer, cols(1 + rel.attrCols.size + k), runs, pages,
          i => rel.rows(i)._2(k), (stats, v) => stats.updateStats(v))
      }
      writer.endBlock()
    }
    writer.end(Map(SparkSchemaKey -> SummarySource.schemaFor(rel).json).asJava)
  }

  /** One column of 8-byte values given as their bits by `bitsOf(summary row)`:
    * a dictionary page of the distinct values, in order of first use, then
    * per page one RLE run of dictionary ids per summary row.
    */
  private def writeDictionaryColumn(
      writer: ParquetFileWriter, col: ColumnDescriptor, runs: Vector[(Int, Long, Long)],
      pages: Vector[(Long, Long)], bitsOf: Int => Long, addStat: (Statistics[_], Long) => Unit): Unit = {
    val ids = scala.collection.mutable.LinkedHashMap.empty[Long, Int]
    val runIds = runs.map { case (i, _, _) => ids.getOrElseUpdate(bitsOf(i), ids.size) }
    val dict = new ByteArrayOutputStream(8 * ids.size)
    ids.keysIterator.foreach(v => writeLongLE(dict, v, 8))
    val bitWidth = 32 - Integer.numberOfLeadingZeros(ids.size - 1)
    val idBytes = (bitWidth + 7) / 8
    writer.startColumn(col, pages.last._2 - pages.head._1, CompressionCodecName.UNCOMPRESSED)
    writer.writeDictionaryPage(new DictionaryPage(BytesInput.from(dict.toByteArray), ids.size, Encoding.PLAIN))
    var r = 0 // the first run not wholly written yet
    pages.foreach { case (s, e) =>
      val stats: Statistics[_] = Statistics.createStats(col.getPrimitiveType)
      val data = new ByteArrayOutputStream()
      data.write(bitWidth)
      var k = r
      while (k < runs.size && runs(k)._2 < e) {
        val (i, rs, re) = runs(k)
        BytesUtils.writeUnsignedVarInt((math.min(re, e) - math.max(rs, s)).toInt << 1, data)
        writeLongLE(data, runIds(k).toLong, idBytes)
        addStat(stats, bitsOf(i))
        k += 1
      }
      // A run that goes on past the page goes on in the next one.
      r = if (runs(k - 1)._3 > e) k - 1 else k
      writePage(writer, (e - s).toInt, data.toByteArray, stats, Encoding.RLE_DICTIONARY)
    }
    writer.endColumn()
  }

  private def writePage(writer: ParquetFileWriter, rows: Int, bytes: Array[Byte],
                        stats: Statistics[_], encoding: Encoding): Unit =
    // A required, non-repeated column has no level bytes.
    writer.writeDataPage(rows, bytes.length, BytesInput.from(bytes), stats, rows.toLong,
      Encoding.RLE, Encoding.RLE, encoding)

  /** `DELTA_BINARY_PACKED` PKs `first, first + 1, …` (`n` of them): the
    * header, then per block of 128 deltas the minimum delta (1) and four
    * miniblocks of bit width 0, which hold no bytes.
    */
  private def deltaPks(first: Long, n: Int): Array[Byte] = {
    val out = new ByteArrayOutputStream()
    BytesUtils.writeUnsignedVarInt(128, out) // values per block
    BytesUtils.writeUnsignedVarInt(4, out) // miniblocks per block
    BytesUtils.writeUnsignedVarInt(n, out)
    BytesUtils.writeZigZagVarLong(first, out)
    val block = Array[Byte](2, 0, 0, 0, 0) // zigzag(1), then four bit widths of 0
    var deltas = n - 1
    while (deltas > 0) { out.write(block); deltas -= 128 }
    out.toByteArray
  }

  private def writeLongLE(out: ByteArrayOutputStream, v: Long, bytes: Int): Unit = {
    var k = 0
    while (k < bytes) { out.write((v >>> (8 * k)).toInt & 0xff); k += 1 }
  }
}
