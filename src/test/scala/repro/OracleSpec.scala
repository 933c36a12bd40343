package repro

import org.apache.spark.sql.functions._

/** Tests of the DuckDB oracle harness itself. */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  test("accepts equivalent results") {
    val df = Seq((1, "a"), (2, "b")).toDF("k", "v")
    val agg = df.groupBy("v").agg(count(lit(1)).as("cnt")).select("v", "cnt")
    Oracle.assertEquivalent(agg, "SELECT v, count(*) AS cnt FROM t GROUP BY v", "t" -> df)
  }

  test("rejects wrong results") {
    val df = Seq((1, "a"), (2, "b")).toDF("k", "v")
    val wrong = Seq(("a", 99L)).toDF("v", "cnt")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, "SELECT v, count(*) AS cnt FROM t GROUP BY v", "t" -> df)
    }
  }

  test("rejects column mismatches") {
    val df = Seq((1, "a")).toDF("k", "v")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df.select("k"), "SELECT v FROM t", "t" -> df)
    }
  }

  test("canonicalizes doubles across engines") {
    val df = Seq(1.5, 2.25).toDF("x")
    val s = df.agg(sum("x").as("s")).select("s")
    Oracle.assertEquivalent(s, "SELECT sum(CAST(x AS DOUBLE)) AS s FROM t", "t" -> df)
  }

  test("handles nulls") {
    val df = Seq(Some(1), None, Some(3)).toDF("x")
    val q = df.agg(count(col("x")).as("c")).select("c")
    Oracle.assertEquivalent(q, "SELECT count(x) AS c FROM t", "t" -> df)
  }
}
