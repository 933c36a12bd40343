package repro.hydra

import repro.{CcSlack, SparkSpec, TestWorkloads}
import repro.lp.Rational

/** The full WLc summary at the test scale: the workload with the most CCs,
  * whose `date_dim` and `inventory` views need branch-and-bound, so the
  * whole exact solver runs here, not only in the benches.
  */
class WlcSummarySpec extends SparkSpec {
  private lazy val wlc = TestWorkloads.wlc
  private lazy val solved = wlc.viewLps.map(lp => lp -> LPFormulator.solveIntegral(lp))

  test("WLc: every view's integral solution satisfies A·x = b exactly") {
    solved.foreach { case (lp, res) =>
      val x = Array.fill(lp.nVars)(Rational.Zero)
      for ((sol, i) <- res.solutions.zipWithIndex) {
        val count = sol.rows.toMap
        for ((pt, r) <- lp.parts(i).zipWithIndex)
          x(lp.offsets(i) + r) = Rational(count.getOrElse(pt, 0L))
      }
      lp.eqs.foreach { e =>
        val lhs = e.coeffs.foldLeft(Rational.Zero) { case (s, (j, c)) => s + c * x(j) }
        assert(lhs == e.rhs, s"view ${lp.relation}: ${e.coeffs.size}-term row has $lhs, want ${e.rhs}")
      }
    }
    val branched = solved.collect { case (lp, res) if res.stats.bbNodes > 1 => lp.relation }
    assert(branched.nonEmpty, "no WLc view needed branch-and-bound")
  }

  test("WLc: the LPs are small by construction (at most 1 200 columns in all)") {
    val cols = solved.map(_._1.nVars)
    assert(cols.sum <= 1200, s"WLc LP columns per view: ${solved.map(_._1.relation).zip(cols)}")
  }

  test("WLc: the summary built from those solutions meets every CC within RI slack") {
    val gen = SummaryGenerator.generate(wlc.schema, solved.map(_._2))
    wlc.ccs.foreach(cc => CcSlack.assertMet(cc, gen.viewTables(cc.relation).countWhere(cc.pred), gen.extraTuples))
  }
}
