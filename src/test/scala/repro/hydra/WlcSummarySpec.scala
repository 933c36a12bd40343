package repro.hydra

import repro.{SparkSpec, TestWorkloads}
import repro.lp.Rational

/** The full WLc summary at the test scale. Its `inventory` view is the
  * largest LP the pipeline builds (≈1.7 k rows over ≈5 k columns) and needs
  * branch-and-bound, so the whole exact solver runs here, not only in the
  * benches.
  */
class WlcSummarySpec extends SparkSpec {
  private lazy val wlc = TestWorkloads.wlc
  private lazy val solved = wlc.viewLps.map(lp => lp -> LPFormulator.solveIntegral(lp))

  test("WLc: every view's integral solution satisfies A·x = b exactly") {
    solved.foreach { case (lp, res) =>
      val x = Array.fill(lp.nVars)(Rational.Zero)
      for ((sol, i) <- res.solutions.zipWithIndex) {
        val count = sol.rows.toMap
        for ((b, r) <- lp.parts(i).zipWithIndex)
          x(lp.offsets(i) + r) = Rational(count.getOrElse(b.boxes.head, 0L))
      }
      lp.eqs.foreach { e =>
        val lhs = e.coeffs.foldLeft(Rational.Zero) { case (s, (j, c)) => s + c * x(j) }
        assert(lhs == e.rhs, s"view ${lp.relation}: ${e.coeffs.size}-term row has $lhs, want ${e.rhs}")
      }
    }
    val inventory = solved.find(_._1.relation == "inventory").get._2.stats
    assert(inventory.numVars > 1000 && inventory.bbNodes > 1,
      s"inventory LP: ${inventory.numVars} vars, ${inventory.bbNodes} B&B nodes")
  }

  test("WLc: the summary built from those solutions meets every CC within RI slack") {
    val gen = SummaryGenerator.generate(wlc.schema, solved.map(_._2))
    wlc.ccs.foreach { cc =>
      val got = gen.viewTables(cc.relation).countWhere(cc.pred)
      val slack = gen.extraTuples.getOrElse(cc.relation, 0L)
      assert(got >= cc.card && got <= cc.card + slack,
        s"CC on ${cc.relation} (${cc.pred.toSql}): want ${cc.card}, got $got, slack $slack")
    }
  }
}
