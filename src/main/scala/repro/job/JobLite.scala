package repro.job

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._

/** JOB-lite: a synthetic IMDB-like schema standing in for the Join Order
  * Benchmark dataset used in §7.6 — "schematically highly different" from
  * TPC-DS: narrow entity tables (title, name, company) referenced by three
  * association facts, giving a DAG-structured dependency graph.
  */
object JobLite {

  val schema: SchemaDef = SchemaDef(Seq(
    Relation("company", "co_id", Seq(
      Attr("co_country", 0, 120, categorical = true),
      Attr("co_kind", 0, 5, categorical = true)), Nil),
    Relation("name", "n_id", Seq(
      Attr("n_gender", 0, 3, categorical = true), Attr("n_birth", 1900, 2010)), Nil),
    Relation("title", "t_id", Seq(
      Attr("t_kind", 0, 8, categorical = true),
      Attr("t_year", 1880, 2020, categorical = true), Attr("t_rating", 0, 10)), Nil),
    Relation("movie_companies", "mc_id", Seq(
      Attr("mc_note", 0, 100)),
      Seq(ForeignKey("mc_titlekey", "title"), ForeignKey("mc_companykey", "company"))),
    Relation("movie_info", "mi_id", Seq(
      Attr("mi_infotype", 0, 110, categorical = true), Attr("mi_value", 0, 1000)),
      Seq(ForeignKey("mi_titlekey", "title"))),
    Relation("cast_info", "ci_id", Seq(
      Attr("ci_role", 0, 11, categorical = true)),
      Seq(ForeignKey("ci_titlekey", "title"), ForeignKey("ci_namekey", "name"))),
  ))

  def rowCounts(sf: Double): Map[String, Long] = {
    def n(base: Long, floor: Long): Long = math.max(floor, (base * sf).toLong)
    Map(
      "company"         -> n(23500, 50),
      "name"            -> n(400000, 200),
      "title"           -> n(250000, 150),
      "movie_companies" -> n(260000, 100),
      "movie_info"      -> n(500000, 200),
      "cast_info"       -> n(1000000, 300),
    )
  }

  def clientDb(spark: SparkSession, sf: Double, seed: Long = 43): Map[String, DataFrame] =
    ClientDb.generate(spark, schema, rowCounts(sf), seed)

  val facts: Seq[String] = Seq("cast_info", "movie_info", "movie_companies")
}

/** The 260-query JOB workload of §7.6 (523 CCs), scaled to CI budgets. */
object JobWorkload {
  def queries(numQueries: Int = 30, seed: Long = 17): Seq[Query] =
    WorkloadGen.generate(JobLite.schema, JobLite.facts,
      WorkloadSpec(numQueries, maxDims = 2, filterProb = 0.75,
        maxDisjuncts = 2, constantGrid = 10, poolSize = 6,
        defaultAttrsPerConjunct = 2, wideAttrs = Map.empty, seed = seed))
}
