package repro.hydra

import org.apache.spark.sql.{DataFrame, SparkSession}
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
    val df = TupleGenerator.dataFrame(spark, summaryPath, "R", startPk = 100, endPk = 250)
    assert(df.count() == 150)
    val mm = df.agg(min("R_pk"), max("R_pk")).head()
    assert(mm.getLong(0) == 101L && mm.getLong(1) == 250L)
  }

  test("numPartitions controls split count without changing content") {
    val one = TupleGenerator.dataFrame(spark, summaryPath, "S", numPartitions = 1)
    val many = TupleGenerator.dataFrame(spark, summaryPath, "S", numPartitions = 7)
    assert(many.rdd.getNumPartitions == 7)
    assert(one.exceptAll(many).isEmpty && many.exceptAll(one).isEmpty)
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
    assert(stats(TupleGenerator.dataFrame(spark, summaryPath, "R", startPk = 100, endPk = 250))
      .rowCount == Some(BigInt(150)))
    val huge = DbSummary(Vector(RelationSummary("H", "h_pk", Vector("x"), Vector.empty,
      Vector((Vector(0.0), Vector.empty, Long.MaxValue / 4)))))
    val p = java.nio.file.Files.createTempFile("tg-huge", ".summary").toString
    DbSummary.save(huge, p)
    val hs = stats(TupleGenerator.dataFrame(spark, p, "H"))
    assert(hs.rowCount == Some(BigInt(Long.MaxValue / 4)) && hs.sizeInBytes == BigInt(Long.MaxValue))
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

  test("empty relation generates an empty DataFrame") {
    val empty = DbSummary(Vector(RelationSummary("E", "e_pk", Vector("x"), Vector.empty, Vector.empty)))
    val p = java.nio.file.Files.createTempFile("tg-empty", ".summary").toString
    DbSummary.save(empty, p)
    assert(TupleGenerator.dataFrame(spark, p, "E").count() == 0)
  }
}
