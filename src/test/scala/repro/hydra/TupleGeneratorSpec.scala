package repro.hydra

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.datasources.v2.BatchScanExec
import org.apache.spark.sql.execution.joins.BroadcastHashJoinExec
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core._

/** DataSourceV2 tuple generator tests (§6): generated relations must agree
  * with the summary arithmetic, with the DataFrame reference generator, and
  * with DuckDB on aggregate queries (Oracle).
  */
class TupleGeneratorSpec extends SparkSpec {

  private val schema = SchemaDef(Seq(
    Relation("T", "T_pk", Seq(Attr("C", 0, 5)), Nil),
    Relation("S", "S_pk", Seq(Attr("A", 0, 100), Attr("B", 0, 10)), Nil),
    Relation("R", "R_pk", Nil, Seq(ForeignKey("S_fk", "S"), ForeignKey("T_fk", "T"))),
  ))
  private def between(attr: String, lo: Double, hi: Double) =
    Dnf.of(Conjunct.range(attr, lo, hi))
  private val ccs = Seq(
    CC("R", Dnf.True, 8000), CC("S", Dnf.True, 700), CC("T", Dnf.True, 1500),
    CC("S", between("A", 20, 60), 400),
    CC("T", between("C", 2, 3), 900),
    CC("R", between("A", 20, 60), 5000),
    CC("R", between("A", 20, 60).and(between("C", 2, 3)), 3000))

  private lazy val result = Hydra.buildSummary(schema, ccs)

  /** Reference generator built from plain DataFrame ops (range + broadcast
    * range-join against the summary) — used to cross-check the DSv2 scan.
    */
  private def dataFrameViaJoin(spark: SparkSession, rel: RelationSummary): DataFrame = {
    import spark.implicits._
    val rows = rel.rows.zipWithIndex.map { case ((attrs, fks, _), i) =>
      (rel.starts(i), rel.starts(i + 1), attrs, fks)
    }
    val summaryDf = spark.createDataset(rows).toDF("_start", "_end", "_attrs", "_fks")
    val base = spark.range(1, rel.total + 1).toDF(rel.pkCol)
    val joined = base.join(broadcast(summaryDf),
      base(rel.pkCol) > col("_start") && base(rel.pkCol) <= col("_end"))
    val attrCols = rel.attrCols.zipWithIndex.map { case (c, i) => col("_attrs").getItem(i).as(c) }
    val fkCols = rel.fkCols.zipWithIndex.map { case (c, i) => col("_fks").getItem(i).as(c) }
    joined.select((col(rel.pkCol) +: (attrCols ++ fkCols)): _*)
  }
  private lazy val summaryPath = {
    val p = java.nio.file.Files.createTempFile("tg", ".summary").toString
    DbSummary.save(result.summary, p)
    p
  }

  test("generated relation has the summary's total row count") {
    for (rel <- Seq("R", "S", "T")) {
      val df = TupleGenerator.dataFrame(spark, summaryPath, rel)
      assert(df.count() == result.summary.byName(rel).total, s"count mismatch for $rel")
    }
  }

  test("PKs are exactly 1..N with no duplicates") {
    val df = TupleGenerator.dataFrame(spark, summaryPath, "S")
    val n = result.summary.byName("S").total
    assert(df.select("S_pk").distinct().count() == n)
    val mm = df.agg(min("S_pk"), max("S_pk")).head()
    assert(mm.getLong(0) == 1L && mm.getLong(1) == n)
  }

  test("DSv2 scan equals the DataFrame reference generator") {
    for (rel <- Seq("R", "S", "T")) {
      val a = TupleGenerator.dataFrame(spark, summaryPath, rel)
      val b = dataFrameViaJoin(spark, result.summary.byName(rel))
      assert(a.exceptAll(b).isEmpty && b.exceptAll(a).isEmpty, s"mismatch for $rel")
    }
  }

  test("filter cardinalities on generated data match the summary arithmetic") {
    val s = TupleGenerator.dataFrame(spark, summaryPath, "S")
    val c = s.filter(between("A", 20, 60).toColumn).count()
    assert(c == result.ccCount(CC("S", between("A", 20, 60), 0)) && c == 400)
  }

  test("join cardinalities on generated data match the AQP (volumetric similarity)") {
    val r = TupleGenerator.dataFrame(spark, summaryPath, "R")
    val s = TupleGenerator.dataFrame(spark, summaryPath, "S")
    val t = TupleGenerator.dataFrame(spark, summaryPath, "T")
    val joined = r.join(s, r("S_fk") === s("S_pk")).join(t, r("T_fk") === t("T_pk"))
    val c1 = joined.filter(between("A", 20, 60).toColumn).count()
    val c2 = joined.filter(between("A", 20, 60).and(between("C", 2, 3)).toColumn).count()
    assert(c1 == 5000, s"R⋈S filter count $c1")
    assert(c2 == 3000, s"R⋈S⋈T filter count $c2")
  }

  test("oracle: aggregates over the generated relation match DuckDB") {
    val s = TupleGenerator.dataFrame(spark, summaryPath, "S")
    val agg = s.groupBy("A").agg(
      count(lit(1)).as("cnt"), sum("B").as("sumb")).select("A", "cnt", "sumb")
    Oracle.assertEquivalent(agg,
      "SELECT CAST(A AS DOUBLE) AS A, count(*) AS cnt, sum(CAST(B AS DOUBLE)) AS sumb " +
        "FROM s GROUP BY 1",
      "s" -> s)
  }

  test("oracle: PK-FK join over generated relations matches DuckDB") {
    val r = TupleGenerator.dataFrame(spark, summaryPath, "R")
    val s = TupleGenerator.dataFrame(spark, summaryPath, "S")
    val q = r.join(s, r("S_fk") === s("S_pk"))
      .groupBy("A").agg(count(lit(1)).as("cnt")).select("A", "cnt")
    Oracle.assertEquivalent(q,
      "SELECT CAST(A AS DOUBLE) AS A, count(*) AS cnt FROM r " +
        "JOIN s ON CAST(r.S_fk AS BIGINT) = CAST(s.S_pk AS BIGINT) GROUP BY 1",
      "r" -> r, "s" -> s)
  }

  test("startPk/endPk slice generates exactly that PK window") {
    val df = TupleGenerator.dataFrame(spark, summaryPath, "R", startPk = Some(100), endPk = Some(250))
    assert(df.count() == 150)
    val mm = df.agg(min("R_pk"), max("R_pk")).head()
    assert(mm.getLong(0) == 101L && mm.getLong(1) == 250L)
  }

  test("default split count is one per 65 536 rows, at most 16") {
    def oneRow(name: String, n: Long) =
      RelationSummary(name, s"${name}_pk", Vector("x"), Vector.empty, Vector((Vector(0.0), Vector.empty, n)))
    val p = java.nio.file.Files.createTempFile("tg-splits", ".summary").toString
    DbSummary.save(DbSummary(Vector(oneRow("A", 1), oneRow("B", 65537), oneRow("C", 2000000))), p)
    val splits = Seq("A", "B", "C").map(TupleGenerator.dataFrame(spark, p, _).rdd.getNumPartitions)
    assert(splits == Seq(1, 2, 16))
  }

  test("scan reports the PK window's exact row count, and a size that saturates") {
    def stats(df: org.apache.spark.sql.DataFrame) = df.queryExecution.optimizedPlan.stats
    assert(stats(TupleGenerator.dataFrame(spark, summaryPath, "R")).rowCount ==
      Some(BigInt(result.summary.byName("R").total)))
    assert(stats(TupleGenerator.dataFrame(spark, summaryPath, "R", startPk = Some(100), endPk = Some(250)))
      .rowCount == Some(BigInt(150)))
    val huge = DbSummary(Vector(RelationSummary("H", "h_pk", Vector("x"), Vector.empty,
      Vector((Vector(0.0), Vector.empty, Long.MaxValue / 4)))))
    val p = java.nio.file.Files.createTempFile("tg-huge", ".summary").toString
    DbSummary.save(huge, p)
    val hs = stats(TupleGenerator.dataFrame(spark, p, "H"))
    assert(hs.rowCount == Some(BigInt(Long.MaxValue / 4)) && hs.sizeInBytes == BigInt(Long.MaxValue))
  }

  test("a relation of ≈Long.MaxValue tuples splits 16 ways over its whole PK window") {
    val half = Long.MaxValue / 2
    val huge = RelationSummary("H", "h_pk", Vector("x"), Vector.empty,
      Vector((Vector(0.0), Vector.empty, half), (Vector(1.0), Vector.empty, half)))
    assert(huge.starts == Vector(0L, half, 2 * half) && huge.total == Long.MaxValue - 1)
    val p = java.nio.file.Files.createTempFile("tg-half", ".summary").toString
    DbSummary.save(DbSummary(Vector(huge)), p)
    val scan = new SummaryScan(SummarySource.schemaFor(huge), Map("path" -> p, "relation" -> "H"))
      .planInputPartitions().map(_.asInstanceOf[SummaryInputPartition]).map(s => (s.start, s.end)).toVector
    for ((splits, want) <- Seq(scan -> 16, SummaryScan.splits(0, huge.total, 7) -> 7)) {
      assert(splits.length == want, splits.mkString(" "))
      assert(splits.head._1 == 0 && splits.last._2 == huge.total)
      assert(splits.tail.map(_._1) == splits.init.map(_._2) && splits.forall { case (s, e) => e > s })
    }
  }

  test("a relation whose tuple count overflows a Long fails, naming it") {
    val over = RelationSummary("Big", "b_pk", Vector("x"), Vector.empty,
      Vector((Vector(0.0), Vector.empty, Long.MaxValue / 2 + 1), (Vector(1.0), Vector.empty, Long.MaxValue / 2 + 1)))
    val e = intercept[ArithmeticException](over.total)
    assert(e.getMessage.contains("relation Big"), e.getMessage)
    intercept[ArithmeticException](over.starts)
  }

  test("a fact-dimension join over two DSv2 frames broadcasts the dimension") {
    val session = spark.newSession() // the shared session disables broadcast joins
    session.conf.set("spark.sql.autoBroadcastJoinThreshold", "10MB")
    val r = TupleGenerator.dataFrame(session, summaryPath, "R")
    val s = TupleGenerator.dataFrame(session, summaryPath, "S")
    val plan = r.join(s, r("S_fk") === s("S_pk")).queryExecution.sparkPlan
    assert(plan.collect { case j: BroadcastHashJoinExec => j }.nonEmpty, plan.treeString)
  }

  test("materialize writes parquet that matches the dynamic scan") {
    val out = java.nio.file.Files.createTempDirectory("tgmat").toString
    TupleGenerator.materialize(spark, summaryPath, out)
    for (rel <- Seq("R", "S", "T")) {
      val disk = spark.read.parquet(s"$out/$rel")
      val dyn = TupleGenerator.dataFrame(spark, summaryPath, rel)
      assert(disk.exceptAll(dyn).isEmpty && dyn.exceptAll(disk).isEmpty, s"parquet mismatch $rel")
    }
  }

  /** The batches the columnar reader gives for PKs `(start, end]`, each as
    * its PKs and the attribute and FK values of its first and last row,
    * copied out of the reused batch.
    */
  private def readBatches(rel: RelationSummary, start: Long, end: Long)
      : Vector[(Vector[Long], Seq[Seq[Double]], Seq[Seq[Long]])] = {
    val reader = new SummaryBatchReader(rel, start, end)
    val out = Vector.newBuilder[(Vector[Long], Seq[Seq[Double]], Seq[Seq[Long]])]
    try while (reader.next()) {
      val b = reader.get()
      val ends = Seq(0, b.numRows - 1)
      out += ((Vector.tabulate(b.numRows)(b.column(0).getLong),
        ends.map(k => rel.attrCols.indices.map(i => b.column(1 + i).getDouble(k))),
        ends.map(k => rel.fkCols.indices.map(j => b.column(1 + rel.attrCols.size + j).getLong(k)))))
    } finally reader.close()
    out.result()
  }

  /** The fewest batches of at most 4 096 rows, none crossing a summary row,
    * that cover PKs `(start, end]`.
    */
  private def fewestBatches(rel: RelationSummary, start: Long, end: Long): Long =
    rel.rows.indices.map { i =>
      val overlap = math.min(end, rel.starts(i + 1)) - math.max(start, rel.starts(i))
      if (overlap <= 0) 0L else SummaryScan.ceilDiv(overlap, SummaryBatchReader.BatchRows)
    }.sum

  test("columnar reader: batches of at most 4096 rows inside one summary row, consecutive PKs, the row's constants") {
    def rel(counts: Long*) = RelationSummary("B", "b_pk", Vector("x", "y"), Vector("f"),
      counts.zipWithIndex.map { case (c, i) => (Vector(i.toDouble, -0.5 * i), Vector(100L + i), c) }.toVector)
    val mixed = rel(0, 1, 4095, 0, 4096, 4097, 0)
    val n = mixed.total // 12 289
    val top = rel(Long.MaxValue - 5000, 0, 5000)
    val cases = Seq(
      (mixed, 0L, n), (mixed, 3L, n - 5), (mixed, 0L, 1L), (mixed, 1L, 4096L), (mixed, 4096L, 8192L),
      (mixed, 8192L, n), (mixed, 4095L, 4097L), (mixed, 5000L, 5001L), (mixed, 100L, 9000L),
      (mixed, n, n), (rel(), 0L, 0L), (rel(0, 0), 0L, 0L),
      (top, Long.MaxValue - 9000, Long.MaxValue), (top, Long.MaxValue - 4097, Long.MaxValue - 1))
    assert(top.total == Long.MaxValue)
    for ((r, start, end) <- cases) {
      val what = s"${r.rows.map(_._3)} ($start, $end]"
      val batches = readBatches(r, start, end)
      assert(batches.flatMap(_._1) == (start + 1 to end), what)
      assert(batches.size == fewestBatches(r, start, end), what)
      batches.foreach { case (pks, attrs, fks) =>
        assert(pks.nonEmpty && pks.size <= 4096, what)
        val i = r.starts.lastIndexWhere(_ < pks.head) // the summary row of the first PK
        assert(pks.last <= r.starts(i + 1), s"$what: batch ${pks.head}..${pks.last} crosses row $i")
        assert(attrs.forall(_ == r.rows(i)._1) && fks.forall(_ == r.rows(i)._2), what)
      }
    }
    assert(fewestBatches(mixed, 0, n) == 5)
  }

  test("the row reader is gone: createReader fails, naming the relation") {
    val rel = result.summary.byName("S")
    val e = intercept[UnsupportedOperationException] {
      new SummaryReaderFactory().createReader(SummaryInputPartition(rel, 0, 1))
    }
    assert(e.getMessage.contains("relation S"), e.getMessage)
  }

  test("the scan's SQL metrics count the PK window's generated rows and batches") {
    val rel = result.summary.byName("R")
    val df = TupleGenerator.dataFrame(spark, summaryPath, "R", startPk = Some(100), endPk = Some(5250))
    assert(df.collect().length == 5150)
    val scans = df.queryExecution.executedPlan.collect { case b: BatchScanExec => b }
    assert(scans.size == 1 && scans.head.supportsColumnar, df.queryExecution.executedPlan.treeString)
    assert(scans.head.metrics("generatedRows").value == 5150)
    assert(scans.head.metrics("generatedBatches").value == fewestBatches(rel, 100, 5250))
  }

  test("a PK window outside the relation fails, naming it") {
    val n = result.summary.byName("T").total
    val e = intercept[IllegalArgumentException] {
      TupleGenerator.dataFrame(spark, summaryPath, "T", startPk = Some(10), endPk = Some(n + 1)).count()
    }
    assert(e.getMessage.contains("relation T"), e.getMessage)
  }

  test("a reversed or non-numeric PK window fails, naming the relation and the option") {
    val reversed = intercept[IllegalArgumentException] {
      TupleGenerator.dataFrame(spark, summaryPath, "T", startPk = Some(20), endPk = Some(10)).count()
    }
    assert(reversed.getMessage.contains("relation T") && reversed.getMessage.contains("startPk"),
      reversed.getMessage)
    val negative = intercept[IllegalArgumentException] {
      TupleGenerator.dataFrame(spark, summaryPath, "T", startPk = Some(-5), endPk = Some(10)).count()
    }
    assert(negative.getMessage.contains("relation T") && negative.getMessage.contains("option startPk = -5"),
      negative.getMessage)
    for (opt <- Seq("startPk", "endPk")) {
      val e = intercept[IllegalArgumentException] {
        spark.read.format(classOf[SummarySource].getName).option("relation", "T")
          .option(opt, "1e3").load(summaryPath).count()
      }
      assert(e.getMessage.contains("relation T") && e.getMessage.contains(s"option $opt = '1e3'"), e.getMessage)
    }
  }

  test("empty relation generates an empty DataFrame") {
    val empty = DbSummary(Vector(RelationSummary("E", "e_pk", Vector("x"), Vector.empty, Vector.empty)))
    val p = java.nio.file.Files.createTempFile("tg-empty", ".summary").toString
    DbSummary.save(empty, p)
    assert(TupleGenerator.dataFrame(spark, p, "E").count() == 0)
  }
}
