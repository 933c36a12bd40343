package repro.hydra

import repro.core.{CC, CcFidelity, SchemaDef}
import repro.hydra.LPFormulator.{ViewLpResult, ViewLpStats}

/** End-to-end Hydra driver (§3): CCs in, database summary out, with a
  * timing breakdown (LP formulation+solving vs summary construction).
  */
object Hydra {

  final case class Result(
      viewTables: Map[String, ViewTable],
      summary: DbSummary,
      lpStats: Vector[ViewLpStats],
      extraTuples: Map[String, Long],
      lpMillis: Long,
      summaryMillis: Long,
  ) {
    /** Summary-side cardinality of a CC on the regenerated database. */
    def ccCount(cc: CC): Long = viewTables(cc.relation).countWhere(cc.pred)

    /** How the summary meets each of `ccs` ([[CcFidelity]]). */
    def fidelity(ccs: Seq[CC]): Vector[CcFidelity] = CcFidelity.report(ccs, extraTuples)(ccCount)
  }

  /** Build the database summary for `schema` under constraints `ccs`.
    * `fallbackTotals` supplies cardinalities for relations that have no
    * relation-size CC in the workload (e.g. never-queried dimensions).
    */
  def buildSummary(
      schema: SchemaDef,
      ccs: Seq[CC],
      fallbackTotals: Map[String, Long] = Map.empty,
  ): Result = {
    val t0 = System.nanoTime()
    val lps: Seq[ViewLpResult] = CC.byView(schema, ccs, fallbackTotals).map { case (rel, relCcs, total) =>
      LPFormulator.solve(schema, rel, relCcs, total)
    }
    val lpMillis = (System.nanoTime() - t0) / 1000000

    val t1 = System.nanoTime()
    val gen = SummaryGenerator.generate(schema, lps)
    val summaryMillis = (System.nanoTime() - t1) / 1000000

    Result(gen.viewTables, gen.summary, lps.map(_.stats).toVector,
      gen.extraTuples, lpMillis, summaryMillis)
  }
}
