package repro.job

import repro.SparkSpec
import repro.core._
import repro.hydra.{DbSummary, Hydra, TupleGenerator}

/** §7.6 in miniature: the JOB-lite workload regenerates with high fidelity. */
class JobEndToEndSpec extends SparkSpec {
  private val schema = JobLite.schema
  private val sf = 0.002
  private lazy val client = JobLite.clientDb(spark, sf)
  private lazy val queries = JobWorkload.queries(numQueries = 10)
  private lazy val ccs = Aqp.extractWorkloadCCs(schema, queries, client)
  private lazy val result = Hydra.buildSummary(schema, ccs, JobLite.rowCounts(sf))

  test("JOB CC extraction yields a varied set") {
    assert(ccs.size > 20)
    assert(ccs.exists(_.pred.conjuncts.size > 1), "should include DNF predicates")
  }

  test("all JOB view LPs are exact") {
    result.lpStats.foreach(st => assert(st.exact, s"${st.relation} inexact"))
  }

  test("every JOB CC within RI slack, positive-only") {
    assert(result.fidelity(ccs).flatMap(_.failure).isEmpty)
  }

  test("regenerated cast_info joins title and name with no dangling FKs") {
    val p = java.nio.file.Files.createTempFile("job", ".summary").toString
    DbSummary.save(result.summary, p)
    val ci = TupleGenerator.dataFrame(spark, p, "cast_info")
    val t = TupleGenerator.dataFrame(spark, p, "title")
    val n = TupleGenerator.dataFrame(spark, p, "name")
    assert(ci.join(t, ci("ci_titlekey") === t("t_id"), "left_anti").count() == 0)
    assert(ci.join(n, ci("ci_namekey") === n("n_id"), "left_anti").count() == 0)
    assert(ci.count() == result.summary.byName("cast_info").total)
  }
}
