package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.hydra.Hydra
import repro.job.JobLite

/** Figure 16: CC cardinality distribution for the JOB workload.
  * Paper: 523 CCs from 260 queries, highly varied cardinalities.
  */
class Fig16JobCardinalityBench extends AnyFunSuite {
  test("Figure 16: cardinality distribution of CCs in JOB") {
    val ccs = BenchEnv.jobCcs
    val buckets = BenchEnv.cardinalityHistogram("Figure 16 — CC cardinality distribution, JOB", ccs)
    println(s"total CCs: ${ccs.size} from ${BenchEnv.jobWl.size} queries " +
      "(paper: 523 CCs from 260 queries)")
    assert(ccs.size > 60)
    assert(buckets >= 4, "cardinalities should span several orders of magnitude")
  }
}

/** Figure 17: LP variables per view for JOB, plus the end-to-end fidelity
  * the paper reports (summary in ~20 s; all CCs within 2 % relative error).
  */
class Fig17JobVariablesBench extends AnyFunSuite {
  test("Figure 17: number of variables for JOB + end-to-end fidelity") {
    val schema = JobLite.schema
    val ccs = BenchEnv.jobCcs
    val rows = BenchEnv.variableCounts(schema, ccs)
    BenchEnv.table("Figure 17 — LP variables per view, JOB (Hydra vs grid)",
      Seq("relation", "Hydra vars", "DataSynth vars"),
      rows.map { case (n, h, g) => Seq(n, h.toString, g.toString) })

    val (res, ms) = BenchEnv.time(
      Hydra.buildSummary(schema, ccs, JobLite.rowCounts(BenchEnv.sf)))
    val report = res.fidelity(ccs)
    val errs = report.map(f => math.abs(f.relErr))
    val worst = report.maxBy(f => math.abs(f.relErr))
    println(f"summary built in $ms ms; max rel err=${errs.max}%.4f " +
      f"p95=${BenchEnv.percentile(errs, 0.95)}%.4f " +
      "(paper: ~20 s, all CCs within 2%)")
    println(s"max error on ${worst.cc.relation}: target ${worst.cc.card}, got ${worst.achieved}, " +
      s"RI extras ${worst.riExtras}")

    // Shape: every view solvable with region counts far below 100k (paper:
    // typically thousands, never exceeding 1e5), errors overwhelmingly tiny.
    rows.foreach { case (n, h, _) => assert(h < 100000, s"$n: $h vars") }
    assert(ms < 120000, s"JOB summary took $ms ms")
    assert(BenchEnv.percentile(errs, 0.9) <= 0.02,
      "p90 relative error should be within the paper's 2%")
    assert(errs.count(_ == 0.0) >= (0.6 * errs.size).toInt)
  }
}
