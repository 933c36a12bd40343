package repro.hydra

import repro.SparkSpec
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
    assert(result.fidelity(ccs).flatMap(_.failure).isEmpty)
  }

  test("re-executing the workload on regenerated data reproduces the AQP cardinalities") {
    val regenCcs = Aqp.extractWorkloadCCs(schema, queries, regen)
    assert(regenCcs.map(_.dedupKey) == ccs.map(_.dedupKey))
    val replayed = regenCcs.map(c => c.dedupKey -> c.card).toMap
    val report = CcFidelity.report(ccs, result.extraTuples)(cc => replayed(cc.dedupKey))
    val differ = report.zip(result.fidelity(ccs)).collect { case (got, want) if got.achieved != want.achieved =>
      s"regen CC ${got.cc.relation}/${got.cc.pred.toSql}: ${got.achieved}, summary says ${want.achieved}"
    }
    assert(differ.isEmpty)
    assert(report.flatMap(_.failure).isEmpty)
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
