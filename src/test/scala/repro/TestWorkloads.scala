package repro

import repro.core.{Aqp, CC, SchemaDef}
import repro.hydra.LPFormulator
import repro.hydra.LPFormulator.ViewLp
import repro.job.{JobLite, JobWorkload}
import repro.tpcds.{TpcdsLite, TpcdsWorkload}

/** The WLs, WLc and JOB CC sets captured on the SF 0.002 client databases
  * (the test scale), shared by the suites that need real view LPs. Each is
  * captured once per test JVM.
  */
object TestWorkloads {
  val sf = 0.002

  final case class Captured(name: String, schema: SchemaDef, ccs: Seq[CC], totals: Map[String, Long]) {
    /** Every view LP of the workload, as `Hydra.buildSummary` formulates it:
      * region partition, then formulation, of each relation's view.
      */
    def formulate(): Seq[ViewLp] =
      CC.byView(schema, ccs, totals).map { case (rel, relCcs, total) =>
        val (subs, parts) = LPFormulator.regionPartitions(schema, rel, relCcs)
        LPFormulator.build(schema, rel, relCcs, total, subs, parts)
      }

    lazy val viewLps: Seq[ViewLp] = formulate()
  }

  private lazy val tpcdsDb = TpcdsLite.clientDb(SparkSpec.shared, sf)

  lazy val wls: Captured = Captured("WLs", TpcdsLite.schema,
    Aqp.extractWorkloadCCs(TpcdsLite.schema, TpcdsWorkload.wls(), tpcdsDb), TpcdsLite.rowCounts(sf))
  lazy val wlc: Captured = Captured("WLc", TpcdsLite.schema,
    Aqp.extractWorkloadCCs(TpcdsLite.schema, TpcdsWorkload.wlc(), tpcdsDb), TpcdsLite.rowCounts(sf))
  lazy val job: Captured = Captured("JOB", JobLite.schema,
    Aqp.extractWorkloadCCs(JobLite.schema, JobWorkload.queries(), JobLite.clientDb(SparkSpec.shared, sf)),
    JobLite.rowCounts(sf))
}
