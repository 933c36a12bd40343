package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{CC, Query, SchemaDef}
import repro.job.{JobLite, JobWorkload}
import repro.tpcds.{TpcdsLite, TpcdsWorkload}

/** One benchmark workload: a client database, the queries the client runs
  * on it, and the factor by which the vendor scales the captured CCs.
  *
  * `wls-x100` loads the tuple generator (≈6.7 M regenerated rows, an LP of
  * a few ms), and `job` loads AQP and replay joins on a schema of another
  * shape (`title` is shared by three facts).
  */
final case class Workload(
    name: String,
    schema: SchemaDef,
    queries: Seq[Query],
    clientDb: SparkSession => Map[String, DataFrame],
    clientRows: Map[String, Long],
    scale: Long,
    facts: Seq[String],
) {
  /** Totals for relations that no query sizes, at the vendor's scale. */
  def fallbackTotals: Map[String, Long] = clientRows.map { case (r, n) => r -> n * scale }

  /** The captured CCs as the vendor receives them: cardinalities times
    * `scale`, in capture order, as every other caller of `Hydra` passes them.
    */
  def vendorCcs(captured: Seq[CC]): Seq[CC] =
    captured.map(c => c.copy(card = c.card * scale))
}

object Workload {
  /** Client scale factor of every workload (≈65 k TPC-DS-lite rows). */
  val ClientSf = 0.01

  final case class Seeds(workload: Long, db: Long)

  val defaultSeeds: Map[String, Seeds] = Map(
    "wls-x100" -> Seeds(7, 42),
    "job" -> Seeds(17, 43),
  )

  def apply(name: String, seeds: Seeds): Workload = name match {
    case "wls-x100" => tpcds(name, TpcdsWorkload.wls(seed = seeds.workload), seeds.db, 100)
    case "job" =>
      Workload(name, JobLite.schema, JobWorkload.queries(seed = seeds.workload),
        JobLite.clientDb(_, ClientSf, seeds.db), JobLite.rowCounts(ClientSf), 1, JobLite.facts)
    case other =>
      throw new IllegalArgumentException(
        s"unknown workload $other (known: ${defaultSeeds.keys.toSeq.sorted.mkString(", ")})")
  }

  private def tpcds(name: String, queries: Seq[Query], dbSeed: Long, scale: Long): Workload =
    Workload(name, TpcdsLite.schema, queries, TpcdsLite.clientDb(_, ClientSf, dbSeed),
      TpcdsLite.rowCounts(ClientSf), scale, TpcdsLite.facts)
}
