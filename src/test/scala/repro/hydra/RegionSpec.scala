package repro.hydra

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport
import repro.core._

/** Region-partitioning tests, anchored on the paper's "Person" example
  * (§3.2, Figure 3): grid-partitioning yields 16 cells, region-partitioning
  * 4 regions.
  */
class RegionSpec extends AnyFunSuite with PropSupport {
  private val attrs = Vector("age", "salary")
  private val domain = Vector(Interval(0, 100), Interval(0, 100000))

  private val c1 = Dnf.of( // age < 40 ∧ salary < 40K
    Conjunct.of(Seq(AttrRange("age", Interval(Double.NegativeInfinity, 40)),
      AttrRange("salary", Interval(Double.NegativeInfinity, 40000)))).get)
  private val c2 = Dnf.of( // 20 ≤ age < 60 ∧ 20K ≤ salary < 60K
    Conjunct.of(Seq(AttrRange("age", Interval(20, 60)),
      AttrRange("salary", Interval(20000, 60000)))).get)

  private def at(p: Vector[Double]): Map[String, Double] = attrs.zip(p).toMap

  test("paper Person example: exactly 4 regions") {
    val p = RegionPartition.optimalPartition(domain, attrs, Seq(c1, c2))
    assert(p.size == 4, s"expected 4 regions, got ${p.size}")
  }

  test("paper Person example: region labels match Figure 3b") {
    val p = RegionPartition.optimalPartition(domain, attrs, Seq(c1, c2))
    val labels = p.map { r =>
      val rep = at(r)
      (c1.eval(rep), c2.eval(rep))
    }.toSet
    assert(labels == Set((true, false), (true, true), (false, true), (false, false)))
  }

  test("paper Person example: the four representatives, in order") {
    // A lo-corner of each region, ordered by its rendering: c1 only,
    // neither, both, c2 only.
    assert(RegionPartition.optimalPartition(domain, attrs, Seq(c1, c2)) ==
      Vector(Vector(0.0, 0.0), Vector(0.0, 40000.0), Vector(20.0, 20000.0), Vector(20.0, 40000.0)))
  }

  test("partition covers the domain exactly (random points land in exactly one region)") {
    // Lemma 4.3: a region is a label class, so a point lies in the one
    // region whose representative has the point's label.
    val p = RegionPartition.optimalPartition(domain, attrs, Seq(c1, c2))
    def label(pt: Map[String, Double]) = (c1.eval(pt), c2.eval(pt))
    val gen = for {
      a <- Gen.oneOf(Gen.chooseNum(0.0, 99.99), Gen.oneOf(0.0, 20.0, 40.0, 60.0))
      s <- Gen.oneOf(Gen.chooseNum(0.0, 99999.0), Gen.oneOf(0.0, 20000.0, 40000.0, 60000.0))
    } yield (a, s)
    checkProp(Prop.forAll(gen) { case (a, s) =>
      val pt = Map("age" -> a, "salary" -> s)
      p.count(r => label(at(r)) == label(pt)) == 1
    })
  }

  test("region label is constant across all points of the region (property)") {
    // No constraint boundary falls inside a grid cell, so every point of a
    // cell, its lo-corner included, must land in the same region.
    val p = RegionPartition.optimalPartition(domain, attrs, Seq(c1, c2))
    def region(pt: Map[String, Double]) = p.indexWhere(r => (c1.eval(at(r)), c2.eval(at(r))) == (c1.eval(pt), c2.eval(pt)))
    val cutsA = Vector(0.0, 20.0, 40.0, 60.0, 100.0)
    val cutsS = Vector(0.0, 20000.0, 40000.0, 60000.0, 100000.0)
    def inCell(i: Int, j: Int, ta: Double, ts: Double) = Map(
      "age" -> (cutsA(i) + ta * (cutsA(i + 1) - cutsA(i))),
      "salary" -> (cutsS(j) + ts * (cutsS(j + 1) - cutsS(j))))
    val t = Gen.chooseNum(0.0, 0.999)
    val gen = for {
      i <- Gen.chooseNum(0, 3); j <- Gen.chooseNum(0, 3)
      ta1 <- t; ts1 <- t; ta2 <- t; ts2 <- t
    } yield (i, j, ta1, ts1, ta2, ts2)
    checkProp(Prop.forAll(gen) { case (i, j, ta1, ts1, ta2, ts2) =>
      val r = region(inCell(i, j, ta1, ts1))
      r >= 0 && region(inCell(i, j, ta2, ts2)) == r && region(inCell(i, j, 0, 0)) == r
    })
  }

  test("a DNF across two dimensions produces the optimal 3-region split") {
    // (a<20 ∧ b>=50) ∨ (a>=80): classes = {in via conj1, in via conj2, out}…
    // points satisfying the DNF through different conjuncts share a label.
    val d = Dnf(Seq(
      Conjunct.of(Seq(AttrRange("age", Interval(0, 20)), AttrRange("salary", Interval(50, 100000)))).get,
      Conjunct.of(Seq(AttrRange("age", Interval(80, 100)))).get))
    val p = RegionPartition.optimalPartition(domain, attrs, Seq(d))
    assert(p.size == 2, s"optimal partition for one DNF has 2 labels, got ${p.size}")
    assert(p.count(r => d.eval(at(r))) == 1)
  }

  test("no constraints ⇒ single region") {
    assert(RegionPartition.optimalPartition(domain, attrs, Nil) == Vector(Vector(0.0, 0.0)))
  }

  test("region count is never larger than the grid-cell count (property)") {
    val genIv = for {
      a <- Gen.chooseNum(0, 90); w <- Gen.chooseNum(5, 40)
    } yield Interval(a, math.min(100, a + w))
    val genC = for {
      ivA <- genIv; ivS <- genIv
    } yield Dnf.of(Conjunct.of(Seq(
      AttrRange("age", ivA), AttrRange("salary", Interval(ivS.lo * 1000, ivS.hi * 1000)))).get)
    checkProp(Prop.forAll(Gen.listOfN(3, genC)) { cs =>
      val p = RegionPartition.optimalPartition(domain, attrs, cs)
      val gridA = cs.flatMap(_.conjuncts.flatMap(_.restriction("age").toSeq.flatMap(iv => Seq(iv.lo, iv.hi))))
        .filter(x => x > 0 && x < 100).distinct.size + 1
      val gridS = cs.flatMap(_.conjuncts.flatMap(_.restriction("salary").toSeq.flatMap(iv => Seq(iv.lo, iv.hi))))
        .filter(x => x > 0 && x < 100000).distinct.size + 1
      p.size <= gridA * gridS && p.nonEmpty
    }, minTests = 50)
  }
}
