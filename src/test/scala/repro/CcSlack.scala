package repro

import org.scalatest.Assertions.assert
import repro.core.CC

/** The fidelity contract for one CC: its regenerated count lies in
  * [card, card + RI slack], where the slack is the number of tuples that
  * referential-integrity repair added to the CC's relation (§7.1).
  */
object CcSlack {
  def assertMet(cc: CC, got: Long, extraTuples: Map[String, Long]): Unit = {
    val slack = extraTuples.getOrElse(cc.relation, 0L)
    assert(got >= cc.card && got <= cc.card + slack,
      s"CC on ${cc.relation} (${cc.pred.toSql}): target ${cc.card}, got $got, RI slack $slack")
  }
}
