package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport

class IntervalSpec extends AnyFunSuite with PropSupport {
  test("contains is half-open") {
    val iv = Interval(2, 5)
    assert(iv.contains(2) && iv.contains(4.999) && !iv.contains(5) && !iv.contains(1.999))
  }
  test("empty intervals") {
    assert(Interval(3, 3).isEmpty && Interval(4, 3).isEmpty && !Interval(3, 4).isEmpty)
  }
  test("intersect") {
    assert(Interval(0, 10).intersect(Interval(5, 15)) == Interval(5, 10))
    assert(Interval(0, 5).intersect(Interval(5, 10)).isEmpty)
  }
  test("minus both sides") {
    assert(Interval(0, 10).minus(Interval(3, 7)) == Seq(Interval(0, 3), Interval(7, 10)))
    assert(Interval(0, 10).minus(Interval(-5, 20)).isEmpty)
    assert(Interval(0, 10).minus(Interval(20, 30)) == Seq(Interval(0, 10)))
  }
  test("minus/intersect partition the interval (property)") {
    val gen = for {
      a <- Gen.chooseNum(-50.0, 50.0); b <- Gen.chooseNum(-50.0, 50.0)
      c <- Gen.chooseNum(-50.0, 50.0); d <- Gen.chooseNum(-50.0, 50.0)
      x <- Gen.chooseNum(-60.0, 60.0)
    } yield (Interval(math.min(a, b), math.max(a, b) + 1), Interval(math.min(c, d), math.max(c, d)), x)
    checkProp(Prop.forAll(gen) { case (iv, cut, x) =>
      val inCut = iv.intersect(cut).contains(x)
      val inRest = iv.minus(cut).exists(_.contains(x))
      iv.contains(x) == (inCut || inRest) && !(inCut && inRest)
    })
  }
}

class ConjunctSpec extends AnyFunSuite {
  test("of() intersects repeated attributes") {
    val c = Conjunct.of(Seq(AttrRange("a", Interval(0, 10)), AttrRange("a", Interval(5, 20)))).get
    assert(c.restriction("a").contains(Interval(5, 10)))
  }
  test("of() drops contradictions") {
    assert(Conjunct.of(Seq(AttrRange("a", Interval(0, 5)), AttrRange("a", Interval(7, 9)))).isEmpty)
  }
  test("eval") {
    val c = Conjunct.range("a", 0, 10).and(Conjunct.range("b", 5, 6)).get
    assert(c.eval(Map("a" -> 3.0, "b" -> 5.5)))
    assert(!c.eval(Map("a" -> 3.0, "b" -> 6.0)))
  }
  test("restriction of absent attribute is None (meaning true)") {
    assert(Conjunct.range("a", 0, 1).restriction("b").isEmpty)
  }
  test("sql rendering") {
    assert(Conjunct.range("a", 1, 2).toSql == "((a >= 1.0 AND a < 2.0))")
    assert(Conjunct.True.toSql == "TRUE")
  }
}

class DnfSpec extends AnyFunSuite {
  private val d1 = Dnf.of(Conjunct.range("a", 0, 10), Conjunct.range("b", 0, 5))
  test("eval is any-of") {
    assert(d1.eval(Map("a" -> 50.0, "b" -> 2.0)))
    assert(!d1.eval(Map("a" -> 50.0, "b" -> 9.0)))
  }
  test("True behaves as identity for and") {
    assert(Dnf.True.and(d1) == d1 && d1.and(Dnf.True) == d1)
    assert(Dnf.True.eval(Map.empty))
  }
  test("and distributes over disjuncts") {
    val d2 = Dnf.of(Conjunct.range("a", 5, 20))
    val conj = d1.and(d2)
    // (a∈[0,10) ∨ b∈[0,5)) ∧ a∈[5,20) = a∈[5,10) ∨ (b∈[0,5) ∧ a∈[5,20))
    assert(conj.conjuncts.size == 2)
    assert(conj.eval(Map("a" -> 7.0, "b" -> 9.0)))
    assert(conj.eval(Map("a" -> 15.0, "b" -> 1.0)))
    assert(!conj.eval(Map("a" -> 2.0, "b" -> 9.0)))
  }
  test("attrs union") {
    assert(d1.attrs == Set("a", "b"))
  }
  test("and of contradictory DNFs fails instead of returning True") {
    val d2 = Dnf.of(Conjunct.range("a", 20, 30))
    val d3 = Dnf.of(Conjunct.range("a", 40, 50), Conjunct.range("a", 0, 10))
    val e = intercept[IllegalArgumentException](d2.and(d3))
    assert(e.getMessage.contains(d2.toSql) && e.getMessage.contains(d3.toSql), e.getMessage)
  }
}
