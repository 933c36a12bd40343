package repro.hydra

import repro.{CcSlack, SparkSpec}
import repro.core._
import repro.tpcds.{TpcdsLite, TpcdsWorkload}

/** Full-workload integration: client DB → AQP extraction → Hydra summary →
  * dynamic regeneration → the same queries report (near-)identical operator
  * cardinalities (§7.1's experiment, in miniature).
  */
class EndToEndSpec extends SparkSpec {
  private val schema = TpcdsLite.schema
  private val sf = 0.002
  private lazy val client = TpcdsLite.clientDb(spark, sf)
  private lazy val queries = TpcdsWorkload.wls(numQueries = 8)
  private lazy val ccs = Aqp.extractWorkloadCCs(schema, queries, client)
  private lazy val result = Hydra.buildSummary(schema, ccs, TpcdsLite.rowCounts(sf))
  private lazy val summaryPath = {
    val p = java.nio.file.Files.createTempFile("e2e", ".summary").toString
    DbSummary.save(result.summary, p)
    p
  }
  private lazy val regen: Map[String, org.apache.spark.sql.DataFrame] =
    schema.relations.map(r => r.name -> TupleGenerator.dataFrame(spark, summaryPath, r.name)).toMap

  test("workload produces a meaningful CC set") {
    assert(ccs.size > 30, s"only ${ccs.size} CCs")
    assert(ccs.exists(c => !c.pred.isTrue))
  }

  test("all view LPs solve exactly with small variable counts") {
    result.lpStats.foreach { st =>
      assert(st.exact, s"${st.relation}: inexact LP")
      assert(st.numVars < 5000, s"${st.relation}: ${st.numVars} vars")
    }
  }

  test("every CC is satisfied on the summary within RI slack") {
    ccs.foreach(cc => CcSlack.assertMet(cc, result.ccCount(cc), result.extraTuples))
  }

  test("errors are positive-only (Hydra property, §7.1)") {
    assert(ccs.forall(cc => result.ccCount(cc) >= cc.card))
  }

  test("re-executing the workload on regenerated data reproduces the AQP cardinalities") {
    val regenCcs = Aqp.extractWorkloadCCs(schema, queries, regen)
    assert(regenCcs.map(_.dedupKey) == ccs.map(_.dedupKey))
    regenCcs.zip(ccs).foreach { case (got, want) =>
      assert(got.card == result.ccCount(want),
        s"regen CC ${got.relation}/${got.pred.toSql}: ${got.card}, summary says ${result.ccCount(want)}")
      CcSlack.assertMet(want, got.card, result.extraTuples)
    }
  }

  test("summary is minuscule compared to the data it regenerates") {
    val summaryRows = result.summary.relations.map(_.rows.size).sum
    val dataRows = result.summary.relations.map(_.total).sum
    assert(summaryRows.toLong * 20 < dataRows,
      s"summary rows $summaryRows vs data rows $dataRows")
  }

  test("referential integrity holds on regenerated relations") {
    for (r <- schema.relations; fk <- r.fks) {
      val child = regen(r.name)
      val parent = regen(fk.target)
      val dangling = child
        .join(parent, child(fk.column) === parent(schema.byName(fk.target).pkCol), "left_anti")
        .count()
      assert(dangling == 0, s"${r.name}.${fk.column}: $dangling dangling FKs")
    }
  }

  test("summary construction is fast (sanity bound)") {
    assert(result.lpMillis + result.summaryMillis < 120000,
      s"pipeline took ${result.lpMillis + result.summaryMillis} ms")
  }
}
