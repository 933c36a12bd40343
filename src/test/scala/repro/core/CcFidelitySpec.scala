package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The fidelity contract of one CC: its count lies in [card, card + RI
  * extras], and its relative error is the one Figs 10 and 17 plot.
  */
class CcFidelitySpec extends AnyFunSuite {
  private val pred = Dnf.of(Conjunct.range("x", 2, 5))
  private def fid(card: Long, achieved: Long, extras: Long) = CcFidelity(CC("F", pred, card), achieved, extras)

  test("a gap inside the RI extras is met, with a positive relative error") {
    val f = fid(100, 103, 5)
    assert(f.met && f.gap == 3 && f.failure.isEmpty)
    assert(f.relErr == 0.03)
    assert(fid(100, 105, 5).met && fid(100, 100, 0).met)
  }

  test("a gap beyond the RI extras fails, naming the relation, predicate, target, count and extras") {
    val f = fid(100, 106, 5)
    assert(!f.met)
    assert(f.failure.contains(s"CC on F (${pred.toSql}): target 100, got 106, RI extras 5"))
  }

  test("a negative gap fails, whatever the extras") {
    val f = fid(100, 99, 5)
    assert(!f.met && f.gap == -1 && f.failure.nonEmpty)
    assert(f.relErr == -0.01)
  }

  test("a zero target: an error of 0 on a count of 0, else 1; met within the extras") {
    assert(fid(0, 0, 0).met && fid(0, 0, 0).relErr == 0.0)
    assert(fid(0, 2, 5).met && fid(0, 2, 5).relErr == 1.0)
    assert(!fid(0, 2, 1).met && fid(0, 2, 1).relErr == 1.0)
  }

  test("a target next to Long.MaxValue is met without wrapping") {
    val f = fid(Long.MaxValue - 1, Long.MaxValue, 5)
    assert(f.met && f.gap == 1)
    assert(!fid(Long.MaxValue, Long.MaxValue - 1, Long.MaxValue).met)
    assert(fid(0, Long.MaxValue, Long.MaxValue).met)
  }

  test("a negative count is rejected, naming the relation") {
    val e = intercept[IllegalArgumentException](fid(10, -1, 0))
    assert(e.getMessage.contains("CC on F"), e.getMessage)
  }

  test("the report keeps the CCs' order and takes each relation's extras, 0 if it has none") {
    val ccs = Seq(CC("F", pred, 10), CC("D", Dnf.True, 4), CC("F", Dnf.True, 20))
    val counts = Map(ccs(0) -> 12L, ccs(1) -> 4L, ccs(2) -> 20L)
    val report = CcFidelity.report(ccs, Map("F" -> 2L, "E" -> 9L))(counts)
    assert(report == Vector(CcFidelity(ccs(0), 12, 2), CcFidelity(ccs(1), 4, 0), CcFidelity(ccs(2), 20, 2)))
    assert(report.forall(_.met))
  }
}
