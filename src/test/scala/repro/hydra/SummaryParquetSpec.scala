package repro.hydra

import java.nio.{ByteBuffer, ByteOrder}
import java.nio.file.{Files, Paths}
import org.apache.hadoop.fs.Path
import org.apache.parquet.column.statistics.Statistics
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.util.HadoopInputFile
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType}
import repro.{Oracle, SparkSpec}
import scala.jdk.CollectionConverters._

/** Static mode's run-length Parquet writer ([[SummaryParquet]] and
  * `TupleGenerator.materialize`): what it writes must read back, in Spark and
  * in DuckDB, as exactly the dynamic scan's tuples, with statistics that any
  * reader may trust to skip data.
  */
class SummaryParquetSpec extends SparkSpec {
  import SummaryParquet.PageRows

  /** Zero-count rows, one row longer than a page, a constant column `c`
    * (bit width 0), 400 distinct values of `y` (two-byte dictionary ids) and
    * negative and fractional doubles.
    */
  private val edge = RelationSummary("E", "e_pk", Vector("x", "y", "c"), Vector("f"),
    Vector(
      (Vector(-2.5, 0.1, 7.0), Vector(3L), 5L),
      (Vector(9.0, -0.1, 7.0), Vector(4L), 0L),
      (Vector(3.25, -1e6, 7.0), Vector(5L), PageRows + 7L),
      (Vector(0.0, 2.0, 7.0), Vector(3L), 0L)) ++
    Vector.tabulate(400)(i => (Vector(-0.125 * i - 1e-3, 1.5 * i + 0.3, 7.0), Vector(1000L + i % 290), 1L + i % 3)) :+
    ((Vector(1e-300, -7.75, 7.0), Vector(2L), 0L)))
  private val empty = RelationSummary("Z", "z_pk", Vector("x"), Vector("f"), Vector.empty)

  private lazy val summaryPath = save(DbSummary(Vector(edge, empty)))
  private lazy val materialized = {
    val out = Files.createTempDirectory("sp-mat").toString
    TupleGenerator.materialize(spark, summaryPath, out)
    out
  }
  /** PKs the windows of [[bySplits]] start or end at, each inside a summary row. */
  private lazy val cuts = {
    val inside = (pk: Long) => edge.starts.indices.exists(i => edge.starts(i) < pk && pk < edge.starts(i + 1))
    Seq(3L, (edge.total - 120 until edge.total - 100).find(inside).get)
  }
  /** `E` written by hand in three splits that begin and end inside summary
    * rows; the middle one holds the row longer than a page.
    */
  private lazy val bySplits = {
    val out = Files.createTempDirectory("sp-splits").toString
    val windows = (0L +: cuts :+ edge.total).sliding(2).map { case Seq(s, e) => (s, e) }.toVector
    windows.zipWithIndex.foreach { case ((s, e), i) =>
      SummaryParquet.writeSplit(edge, s, e, new Path(out, f"part-$i%05d.parquet"), conf)
    }
    // A retried task rewrites its own file.
    SummaryParquet.writeSplit(edge, windows(0)._1, windows(0)._2, new Path(out, "part-00000.parquet"), conf)
    out
  }

  private def conf = spark.sparkContext.hadoopConfiguration
  private def save(db: DbSummary): String = {
    val p = Files.createTempFile("sp", ".summary").toString
    DbSummary.save(db, p)
    p
  }
  private def dynamic(rel: RelationSummary): DataFrame =
    TupleGenerator.dataFrame(spark, save(DbSummary(Vector(rel))), rel.relation)
  private def partFiles(dir: String): Seq[Path] =
    Files.list(Paths.get(dir)).iterator.asScala.map(_.getFileName.toString)
      .filter(_.endsWith(".parquet")).toSeq.sorted.map(f => new Path(dir, f))

  /** The directory's Parquet equals the dynamic scan of `rel`, read by Spark
    * (`exceptAll` both ways, same column names and types) and by DuckDB
    * (per value combination: count, min, max and sum of the PK).
    */
  private def assertSameAsScan(dir: String, rel: RelationSummary): Unit = {
    val disk = spark.read.parquet(dir)
    val dyn = dynamic(rel)
    assert(disk.schema.map(f => f.name -> f.dataType) == SummarySource.schemaFor(rel).map(f => f.name -> f.dataType))
    assert(disk.count() == rel.total)
    assert(disk.exceptAll(dyn).isEmpty && dyn.exceptAll(disk).isEmpty, s"parquet of ${rel.relation} differs from the scan")
    val values = rel.attrCols ++ rel.fkCols
    val pk = rel.pkCol
    Oracle.assertEquivalent(
      dyn.groupBy(values.map(col): _*).agg(count(lit(1)).as("n"), min(pk).as("lo"), max(pk).as("hi"), sum(pk).as("s")),
      s"SELECT ${values.mkString(", ")}, count(*) AS n, min($pk) AS lo, max($pk) AS hi, sum($pk) AS s " +
        s"FROM read_parquet('$dir/*.parquet') GROUP BY ${values.mkString(", ")}")
  }

  test("materialize: zero-count rows, a row longer than a page, bit widths 0 and > 8, negative fractions") {
    assert(partFiles(materialized + "/E").size ==
      math.min(spark.sparkContext.defaultParallelism, SummaryScan.defaultSplits(edge.total)))
    assertSameAsScan(materialized + "/E", edge)
  }

  test("splits that begin and end inside summary rows, one holding a row longer than a page") {
    val middle = edge.runs(cuts(0), cuts(1)).toVector
    assert(middle.exists { case (_, s, e) => e - s > PageRows }, "no row longer than a page in the middle split")
    assert(middle.map { case (i, _, _) => edge.rows(i)._1(1) }.distinct.size > 256)
    assert(partFiles(bySplits).size == 3)
    assertSameAsScan(bySplits, edge)
  }

  test("a zero-row relation is one schema-only file that Spark and DuckDB read with its columns") {
    val dir = materialized + "/Z"
    assert(partFiles(dir).size == 1 && Files.exists(Paths.get(dir, "_SUCCESS")))
    val disk = spark.read.parquet(dir)
    assert(disk.count() == 0)
    assert(disk.schema.map(f => f.name -> f.dataType) == Seq("z_pk" -> LongType, "x" -> DoubleType, "f" -> LongType))
    assert(Oracle.query(s"SELECT column_name, column_type FROM (DESCRIBE SELECT * FROM read_parquet('$dir/*.parquet'))") ==
      Vector(Vector("z_pk", "BIGINT"), Vector("x", "DOUBLE"), Vector("f", "BIGINT")))
    assert(Oracle.query(s"SELECT count(*) FROM read_parquet('$dir/*.parquet')") == Vector(Vector(0L: java.lang.Long)))
  }

  test("range filters pushed down to the Parquet reader return exactly the scan's rows") {
    val disk = spark.read.parquet(bySplits)
    val dyn = dynamic(edge)
    val columns = edge.attrCols.indices.map(k => edge.attrCols(k) -> edge.rows.map(_._1(k)).distinct.sorted) ++
      edge.fkCols.indices.map(k => edge.fkCols(k) -> edge.rows.map(_._2(k)).distinct.sorted)
    for ((c, values) <- columns) {
      for ((lo, hi) <- Seq((values(values.size / 3), values(2 * values.size / 3)), (values.head, values.head),
                           (values.last, values.last))) {
        val pred = col(c) >= lit(lo) && col(c) <= lit(hi)
        val got = disk.filter(pred)
        assert(got.queryExecution.executedPlan.toString.contains(s"GreaterThanOrEqual($c,"),
          got.queryExecution.executedPlan.toString)
        val want = dyn.filter(pred)
        assert(got.count() == want.count(), s"$c in [$lo, $hi]")
        assert(got.exceptAll(want).isEmpty && want.exceptAll(got).isEmpty, s"$c in [$lo, $hi]")
      }
    }
  }

  test("every chunk's and page's min/max is the min/max over its summary rows") {
    def decode(b: ByteBuffer, double: Boolean): Any = {
      val le = b.duplicate().order(ByteOrder.LITTLE_ENDIAN)
      if (double) le.getDouble(0) else le.getLong(0)
    }
    var multiPage = false
    for (file <- partFiles(bySplits) ++ partFiles(materialized + "/E")) {
      val reader = ParquetFileReader.open(HadoopInputFile.fromPath(file, conf))
      try reader.getFooter.getBlocks.asScala.foreach { block =>
        val chunks = block.getColumns.asScala.toVector
        def minMax(k: Int): (Any, Any) = {
          val st: Statistics[_] = chunks(k).getStatistics
          (st.genericGetMin, st.genericGetMax)
        }
        val (lo, hi) = minMax(0) match { case (a: java.lang.Long, b: java.lang.Long) => (a.longValue, b.longValue) }
        assert(hi - lo + 1 == block.getRowCount)
        /** Min and max of column k (0 = PK) over PKs (s, e]. */
        def expected(k: Int, s: Long, e: Long): (Any, Any) = {
          val rows = edge.runs(s, e).map(_._1).toVector
          def range[A: Ordering](vs: Vector[A]) = (vs.min, vs.max)
          if (k == 0) (s + 1, e)
          else if (k <= edge.attrCols.size) range(rows.map(edge.rows(_)._1(k - 1)))
          else range(rows.map(edge.rows(_)._2(k - 1 - edge.attrCols.size)))
        }
        chunks.zipWithIndex.foreach { case (chunk, k) =>
          assert(minMax(k) == expected(k, lo - 1, hi), s"$file column $k")
          val index = reader.readColumnIndex(chunk)
          val offsets = reader.readOffsetIndex(chunk)
          val double = k >= 1 && k <= edge.attrCols.size
          (0 until offsets.getPageCount).foreach { p =>
            val s = lo - 1 + offsets.getFirstRowIndex(p)
            val e = lo - 1 + offsets.getLastRowIndex(p, block.getRowCount) + 1
            assert(e - s <= PageRows)
            assert((decode(index.getMinValues.get(p), double), decode(index.getMaxValues.get(p), double)) ==
              expected(k, s, e), s"$file column $k page $p")
          }
          multiPage ||= offsets.getPageCount > 1
        }
      } finally reader.close()
    }
    assert(multiPage, "no chunk has two pages")
  }

  test("materializing into a used directory leaves only the new run's files") {
    val out = Files.createTempDirectory("sp-over").toString
    val big = RelationSummary("R", "r_pk", Vector("a"), Vector.empty,
      Vector((Vector(1.0), Vector.empty, 200000L), (Vector(2.0), Vector.empty, 100000L)))
    val small = big.copy(rows = Vector((Vector(5.0), Vector.empty, 10L)))
    def visible(dir: String): Set[String] =
      Files.list(Paths.get(dir)).iterator.asScala.map(_.getFileName.toString).filterNot(_.startsWith(".")).toSet
    TupleGenerator.materialize(spark, save(DbSummary(Vector(big))), out)
    val first = math.min(spark.sparkContext.defaultParallelism, SummaryScan.defaultSplits(big.total))
    assert(visible(s"$out/R") == (0 until first).map(i => f"part-$i%05d.parquet").toSet + "_SUCCESS")
    TupleGenerator.materialize(spark, save(DbSummary(Vector(small))), out)
    assert(visible(s"$out/R") == Set("part-00000.parquet", "_SUCCESS"))
    assertSameAsScan(s"$out/R", small)
  }

  test("size guard: 2^22 tuples of a 3-row summary take less than 256 KiB of Parquet") {
    val n = 1L << 22
    val rel = RelationSummary("G", "g_pk", Vector("a", "b"), Vector("f"), Vector(
      (Vector(0.5, -1.0), Vector(1L), (n >> 1) + 5), (Vector(1.5, -2.0), Vector(2L), (n >> 2) - 5),
      (Vector(2.5, -3.0), Vector(3L), n >> 2)))
    assert(rel.total == n)
    val out = Files.createTempDirectory("sp-size").toString
    TupleGenerator.materialize(spark, save(DbSummary(Vector(rel))), out)
    val files = Files.walk(Paths.get(out)).iterator.asScala.filter(Files.isRegularFile(_)).toVector
    val bytes = files.map(Files.size).sum
    assert(bytes < 256 * 1024, s"$bytes bytes in ${files.size} files")
    val rows = partFiles(s"$out/G").map { f =>
      val r = ParquetFileReader.open(HadoopInputFile.fromPath(f, conf))
      try r.getRecordCount finally r.close()
    }.sum
    assert(rows == n)
    def agg(df: DataFrame) = df.groupBy("a", "b", "f").agg(count(lit(1)).as("n"), sum("g_pk").as("s"))
    val (disk, dyn) = (agg(spark.read.parquet(s"$out/G")), agg(dynamic(rel)))
    assert(disk.exceptAll(dyn).isEmpty && dyn.exceptAll(disk).isEmpty)
    Oracle.assertEquivalent(dyn,
      s"SELECT a, b, f, count(*) AS n, sum(g_pk) AS s FROM read_parquet('$out/G/*.parquet') GROUP BY a, b, f")
  }
}
