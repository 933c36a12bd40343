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
  private val domain = Box(Vector(Interval(0, 100), Interval(0, 100000)))

  /** Algorithm 2 (valid partition only). */
  private def validPartition(domain: Box, attrs: Vector[String], subCs: Seq[Conjunct]): Vector[Block] =
    RegionPartition.validPartitionLabeled(domain, attrs, subCs.toVector).map(_._1)

  private val c1 = Dnf.of( // age < 40 ∧ salary < 40K
    Conjunct.of(Seq(AttrRange("age", Interval(Double.NegativeInfinity, 40)),
      AttrRange("salary", Interval(Double.NegativeInfinity, 40000)))).get)
  private val c2 = Dnf.of( // 20 ≤ age < 60 ∧ 20K ≤ salary < 60K
    Conjunct.of(Seq(AttrRange("age", Interval(20, 60)),
      AttrRange("salary", Interval(20000, 60000)))).get)

  test("paper Person example: exactly 4 regions") {
    val p = RegionPartition.optimalPartition(domain, attrs, Seq(c1, c2))
    assert(p.size == 4, s"expected 4 regions, got ${p.size}")
  }

  test("paper Person example: region labels match Figure 3b") {
    val p = RegionPartition.optimalPartition(domain, attrs, Seq(c1, c2))
    val labels = p.map { b =>
      val rep = b.representative(attrs)
      (c1.eval(rep), c2.eval(rep))
    }.toSet
    assert(labels == Set((true, false), (true, true), (false, true), (false, false)))
  }

  test("valid partition is homogeneous within every block") {
    val subCs = Seq(c1, c2).flatMap(_.conjuncts)
    val valid = validPartition(domain, attrs, subCs)
    valid.foreach { block =>
      val sigs = block.boxes.map { box =>
        val rep = attrs.zip(box.loPoint).toMap
        subCs.map(_.eval(rep))
      }
      assert(sigs.distinct.size == 1, "block mixes sub-constraint signatures")
    }
  }

  test("partition covers the domain exactly (random points land in exactly one region)") {
    val p = RegionPartition.optimalPartition(domain, attrs, Seq(c1, c2))
    val gen = for {
      a <- Gen.chooseNum(0.0, 99.99); s <- Gen.chooseNum(0.0, 99999.0)
    } yield (a, s)
    checkProp(Prop.forAll(gen) { case (a, s) =>
      val hits = p.count(_.boxes.exists(b => b.ivs(0).contains(a) && b.ivs(1).contains(s)))
      hits == 1
    })
  }

  test("region label is constant across all points of the region (property)") {
    val p = RegionPartition.optimalPartition(domain, attrs, Seq(c1, c2))
    val gen = for {
      a <- Gen.chooseNum(0.0, 99.99); s <- Gen.chooseNum(0.0, 99999.0)
    } yield (a, s)
    checkProp(Prop.forAll(gen) { case (a, s) =>
      val region = p.find(_.boxes.exists(b => b.ivs(0).contains(a) && b.ivs(1).contains(s))).get
      val rep = region.representative(attrs)
      val pt = Map("age" -> a, "salary" -> s)
      c1.eval(pt) == c1.eval(rep) && c2.eval(pt) == c2.eval(rep)
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
    val sat = p.filter(b => d.eval(b.representative(attrs)))
    assert(sat.size == 1)
    // The satisfied region is an L-shape: needs >= 2 boxes.
    assert(sat.head.boxes.size >= 2)
  }

  test("no constraints ⇒ single region") {
    assert(RegionPartition.optimalPartition(domain, attrs, Nil).size == 1)
  }

  test("refineDim splits boxes at interior points only") {
    val b = Block(Vector(Box(Vector(Interval(0, 10)))))
    val refined = RegionPartition.refineDim(Vector(b), 0, Seq(-5.0, 0.0, 3.0, 7.0, 10.0, 99.0))
    assert(refined.head.boxes.map(_.ivs(0)) ==
      Vector(Interval(0, 3), Interval(3, 7), Interval(7, 10)))
  }

  test("splitBySignature groups boxes by shared-dim lo corner") {
    val blk = Block(Vector(
      Box(Vector(Interval(0, 5), Interval(0, 1))),
      Box(Vector(Interval(0, 5), Interval(1, 2))),
      Box(Vector(Interval(5, 9), Interval(0, 1)))))
    val out = RegionPartition.splitBySignature(Vector(blk), Seq(0))
    assert(out.size == 2)
    assert(out.map(_.boxes.size).sorted == Vector(1, 2))
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
