package repro.hydra

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport
import repro.core._

/** Property-based stress of the region partitioner: random constraint sets
  * over a 3-D domain must always yield a partition that (a) covers, (b) is
  * disjoint, (c) is label-homogeneous, and (d) is optimal (no two regions
  * share a label).
  */
class RegionPropertySpec extends AnyFunSuite with PropSupport {
  private val attrs = Vector("x", "y", "z")
  private val domain = Box(Vector(Interval(0, 20), Interval(0, 20), Interval(0, 20)))

  private val genConj: Gen[Conjunct] = for {
    k <- Gen.chooseNum(1, 3)
    dims <- Gen.pick(k, attrs)
    ranges <- Gen.sequence[List[AttrRange], AttrRange](dims.map { a =>
      for {
        lo <- Gen.chooseNum(0, 18); w <- Gen.chooseNum(1, 10)
      } yield AttrRange(a, Interval(lo, math.min(20, lo + w)))
    }.toList)
  } yield Conjunct.of(ranges).get

  private val genDnf: Gen[Dnf] = for {
    n <- Gen.chooseNum(1, 2)
    cs <- Gen.listOfN(n, genConj)
  } yield Dnf(cs.distinct)

  private val genPoint: Gen[Map[String, Double]] = for {
    x <- Gen.chooseNum(0.0, 19.99); y <- Gen.chooseNum(0.0, 19.99); z <- Gen.chooseNum(0.0, 19.99)
  } yield Map("x" -> x, "y" -> y, "z" -> z)

  private def regionOf(p: Vector[Block], pt: Map[String, Double]): Seq[Block] =
    p.filter(_.boxes.exists(b =>
      attrs.indices.forall(i => b.ivs(i).contains(pt(attrs(i))))))

  test("random partitions cover each point exactly once") {
    checkProp(Prop.forAll(Gen.listOfN(4, genDnf), genPoint) { (dnfs, pt) =>
      val p = RegionPartition.optimalPartition(domain, attrs, dnfs)
      regionOf(p, pt).size == 1
    }, minTests = 60)
  }

  test("random partitions are label-homogeneous at the representative") {
    checkProp(Prop.forAll(Gen.listOfN(4, genDnf), genPoint) { (dnfs, pt) =>
      val p = RegionPartition.optimalPartition(domain, attrs, dnfs)
      val r = regionOf(p, pt).head
      val rep = r.representative(attrs)
      dnfs.forall(d => d.eval(pt) == d.eval(rep))
    }, minTests = 60)
  }

  test("random partitions are optimal: labels are pairwise distinct") {
    checkProp(Prop.forAll(Gen.listOfN(4, genDnf)) { dnfs =>
      val p = RegionPartition.optimalPartition(domain, attrs, dnfs)
      val labels = p.map(b => dnfs.map(_.eval(b.representative(attrs))))
      labels.distinct.size == labels.size
    }, minTests = 60)
  }

  test("partition size is bounded by 2^#constraints label space") {
    checkProp(Prop.forAll(Gen.listOfN(4, genDnf)) { dnfs =>
      val p = RegionPartition.optimalPartition(domain, attrs, dnfs)
      p.size <= math.pow(2, dnfs.size).toInt
    }, minTests = 60)
  }

  test("LP on random feasible CC sets solves exactly") {
    val schema = SchemaDef(Seq(Relation("V", "v_pk",
      attrs.map(a => Attr(a, 0, 20)), Nil)))
    // Build CCs whose cardinalities come from counting a random multiset of
    // integer points — always feasible, always integral.
    val genPoints = Gen.listOfN(40, for {
      x <- Gen.chooseNum(0, 19); y <- Gen.chooseNum(0, 19); z <- Gen.chooseNum(0, 19)
    } yield Map("x" -> x.toDouble, "y" -> y.toDouble, "z" -> z.toDouble))
    checkProp(Prop.forAll(Gen.listOfN(3, genDnf), genPoints) { (dnfs, pts) =>
      val ccs = dnfs.distinct.map(d => CC("V", d, pts.count(d.eval).toLong))
      val res = LPFormulator.solve(schema, "V", ccs, pts.size.toLong)
      res.stats.exact &&
        res.solutions.forall(_.rows.map(_._2).sum == pts.size.toLong)
    }, minTests = 40)
  }
}

/** Additional simplex edge coverage. */
class SimplexEdgeSpec extends AnyFunSuite {
  import repro.lp.{Rational, Simplex}
  import Simplex.Eq

  test("empty system is trivially feasible at the origin") {
    val x = Simplex.feasible(3, Nil).get
    assert(x.forall(_.isZero))
  }

  test("zero-variable system") {
    assert(Simplex.feasible(0, Nil).isDefined)
  }

  test("variable appearing with coefficient 2") {
    val eqs = Seq(Eq(Seq(0 -> Rational(2)), Rational(10)))
    assert(Simplex.feasible(1, eqs).get(0) == Rational(5))
  }

  test("duplicate coefficient entries accumulate") {
    val eqs = Seq(Eq(Seq(0 -> Rational.One, 0 -> Rational.One), Rational(8)))
    assert(Simplex.feasible(1, eqs).get(0) == Rational(4))
  }

  test("huge RHS values (exabyte scale) stay exact") {
    val big = BigInt("2880000000000000000")
    val eqs = Seq(
      Eq(Seq(0 -> Rational.One, 1 -> Rational.One), Rational(big)),
      Eq(Seq(0 -> Rational.One), Rational(big / 3)))
    val s = Simplex.feasibleIntegral(2, eqs).get
    assert(s(0) + s(1) == big)
    assert(s(0) == big / 3)
  }

  test("branch-and-bound closes a gap requiring a non-adjacent integer") {
    // x0 + 2*x1 = 4, x0 + x1 = 3 → unique solution (2, 1), integral.
    val eqs = Seq(
      Eq(Seq(0 -> Rational.One, 1 -> Rational(2)), Rational(4)),
      Eq(Seq(0 -> Rational.One, 1 -> Rational.One), Rational(3)))
    val s = Simplex.feasibleIntegral(2, eqs).get
    assert(s.toSeq == Seq(BigInt(2), BigInt(1)))
  }

  test("genuinely fractional-only system fails, naming the B&B node count") {
    // 2*x0 = 1 has no integer solution: the root (x0 = 1/2) and both
    // branches (x0 ≤ 0, x0 ≥ 1) are searched, and neither branch is feasible.
    val eqs = Seq(Eq(Seq(0 -> Rational(2)), Rational.One))
    val e = intercept[IllegalStateException](Simplex.feasibleIntegral(1, eqs))
    assert(e.getMessage.contains("no integer point exists after 3 branch-and-bound nodes"),
      e.getMessage)
    val cut = intercept[IllegalStateException](Simplex.feasibleIntegral(1, eqs, maxNodes = 1))
    assert(cut.getMessage.contains("node budget exhausted after 1 branch-and-bound nodes (budget 1)"),
      cut.getMessage)
  }
}
