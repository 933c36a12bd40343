package repro.lp

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.{PropSupport, SparkSpec, TestWorkloads}
import repro.hydra.LPFormulator

class RationalSpec extends AnyFunSuite with PropSupport {
  test("normalization") {
    assert(Rational(2, 4) == Rational(1, 2))
    assert(Rational(-2, -4) == Rational(1, 2))
    assert(Rational(2, -4) == Rational(-1, 2))
    assert(Rational(0, 7) == Rational.Zero)
  }
  test("arithmetic basics") {
    assert(Rational(1, 2) + Rational(1, 3) == Rational(5, 6))
    assert(Rational(1, 2) - Rational(1, 2) == Rational.Zero)
    assert(Rational(2, 3) * Rational(3, 4) == Rational(1, 2))
    assert(Rational(1, 2) / Rational(1, 4) == Rational(2))
  }
  test("floor and ceil") {
    assert(Rational(7, 2).floor == BigInt(3) && Rational(7, 2).ceil == BigInt(4))
    assert(Rational(-7, 2).floor == BigInt(-4) && Rational(-7, 2).ceil == BigInt(-3))
    assert(Rational(6).floor == BigInt(6) && Rational(6).ceil == BigInt(6))
  }
  test("ordering") {
    assert(Rational(1, 3) < Rational(1, 2) && Rational(-1, 2) < Rational(0))
  }
  test("field laws (property)") {
    val gr = for { n <- Gen.chooseNum(-50L, 50L); d <- Gen.chooseNum(1L, 30L) } yield Rational(n, d)
    checkProp(Prop.forAll(gr, gr, gr) { (a, b, c) =>
      (a + b) == (b + a) &&
      (a * (b + c)) == (a * b + a * c) &&
      (a - b) + b == a &&
      (b.isZero || (a / b) * b == a)
    })
  }
  test("floor property: floor <= x < floor+1") {
    val gr = for { n <- Gen.chooseNum(-500L, 500L); d <- Gen.chooseNum(1L, 97L) } yield Rational(n, d)
    checkProp(Prop.forAll(gr) { a =>
      Rational(a.floor) <= a && a < Rational(a.floor + 1)
    })
  }
}

class SimplexSpec extends SparkSpec with PropSupport {
  import Simplex._

  private def eq(rhs: Long, vars: (Int, Long)*): Eq =
    Eq(vars.map { case (i, c) => i -> Rational(c) }, Rational(rhs))

  /** `x` has one entry per variable, none negative, and meets every row. */
  private def solves(n: Int, eqs: Seq[Eq], x: Array[Rational]): Boolean =
    x.length == n && x.forall(_.signum >= 0) &&
      eqs.forall(e => e.coeffs.foldLeft(Rational.Zero) { case (s, (j, c)) => s + c * x(j) } == e.rhs)

  test("paper Figure 4b system: y1+y2=1000, y2+y3=2000, y1+..+y4=8000") {
    val eqs = Seq(
      eq(1000, 0 -> 1L, 1 -> 1L),
      eq(2000, 1 -> 1L, 2 -> 1L),
      eq(8000, 0 -> 1L, 1 -> 1L, 2 -> 1L, 3 -> 1L))
    assert(solves(4, eqs, feasible(4, eqs).get))
  }

  test("infeasible: conflicting totals") {
    val eqs = Seq(eq(5, 0 -> 1L), eq(7, 0 -> 1L))
    assert(feasible(1, eqs).isEmpty)
  }

  test("infeasible: subset exceeds total") {
    val eqs = Seq(eq(10, 0 -> 1L, 1 -> 1L), eq(4, 0 -> 1L, 1 -> 1L, 2 -> 1L))
    assert(feasible(3, eqs).isEmpty)
  }

  test("negative rhs rows are handled") {
    // x0 - x1 = -3, x0 + x1 = 5  →  x0 = 1, x1 = 4.
    val eqs = Seq(
      Eq(Seq(0 -> Rational.One, 1 -> Rational(-1)), Rational(-3)),
      eq(5, 0 -> 1L, 1 -> 1L))
    assert(solves(2, eqs, feasible(2, eqs).get))
  }

  test("zero rhs works (origin feasible)") {
    val eqs = Seq(eq(0, 0 -> 1L, 1 -> 1L))
    assert(solves(2, eqs, feasible(2, eqs).get))
  }

  test("Dantzig pricing breaks a tie to the lowest column") {
    // x0 + x1 = 1 prices both columns at 1: x0 enters, giving (1, 0); x1 would give (0, 1).
    val v = vertex(2, Seq(eq(1, 0 -> 1L, 1 -> 1L)))
    assert(v.x.get.toSeq == Seq(Rational.One, Rational.Zero) && v.pivots == 1)
  }

  test("integral solution on an integral system") {
    val eqs = Seq(
      eq(1000, 0 -> 1L, 1 -> 1L),
      eq(2000, 1 -> 1L, 2 -> 1L),
      eq(8000, 0 -> 1L, 1 -> 1L, 2 -> 1L, 3 -> 1L))
    val s = feasibleIntegral(4, eqs).x.get
    assert(s.forall(_ >= 0))
    assert(s(0) + s(1) == BigInt(1000))
    assert(s(1) + s(2) == BigInt(2000))
    assert(s.sum == BigInt(8000))
  }

  test("integral on system with fractional-looking structure") {
    // x0 + x1 = 3, x0 + x2 = 3, x1 + x2 = 4 → x = (1,2,2)
    val eqs = Seq(eq(3, 0 -> 1L, 1 -> 1L), eq(3, 0 -> 1L, 2 -> 1L), eq(4, 1 -> 1L, 2 -> 1L))
    val s = feasibleIntegral(3, eqs).x.get
    assert(s.toSeq == Seq(BigInt(1), BigInt(2), BigInt(2)))
  }

  test("odd cycle forcing fractional LP vertex still integralizes") {
    // x0+x1 = 1, x1+x2 = 1, x0+x2 = 2 → x=(1,0,1) integral feasible.
    val eqs = Seq(eq(1, 0 -> 1L, 1 -> 1L), eq(1, 1 -> 1L, 2 -> 1L), eq(2, 0 -> 1L, 2 -> 1L))
    val s = feasibleIntegral(3, eqs).x.get
    assert(s.toSeq == Seq(BigInt(1), BigInt(0), BigInt(1)))
  }

  test("random feasible partition systems (property)") {
    // Build: vars x0..x{n-1} with a known integral ground truth; constraints
    // are sums over random subsets with rhs evaluated on the truth.
    val gen = for {
      n <- Gen.chooseNum(2, 10)
      truth <- Gen.listOfN(n, Gen.chooseNum(0L, 50L))
      m <- Gen.chooseNum(1, 6)
      subsets <- Gen.listOfN(m, Gen.listOfN(n, Gen.oneOf(true, false)))
    } yield (n, truth.toVector, subsets.map(_.toVector))
    checkProp(Prop.forAll(gen) { case (n, truth, subsets) =>
      val eqs = subsets.map { sel =>
        val vars = (0 until n).filter(sel)
        Eq(vars.map(_ -> Rational.One), Rational(vars.map(truth).sum))
      } :+ Eq((0 until n).map(_ -> Rational.One), Rational(truth.sum))
      feasible(n, eqs).exists(solves(n, eqs, _))
    }, minTests = 60)
  }

  test("random systems integralize exactly (property)") {
    val gen = for {
      n <- Gen.chooseNum(2, 8)
      truth <- Gen.listOfN(n, Gen.chooseNum(0L, 20L))
      m <- Gen.chooseNum(1, 5)
      subsets <- Gen.listOfN(m, Gen.listOfN(n, Gen.oneOf(true, false)))
    } yield (n, truth.toVector, subsets.map(_.toVector))
    checkProp(Prop.forAll(gen) { case (n, truth, subsets) =>
      val eqs = subsets.map { sel =>
        val vars = (0 until n).filter(sel)
        Eq(vars.map(_ -> Rational.One), Rational(vars.map(truth).sum))
      }
      feasibleIntegral(n, eqs).x.exists(s => solves(n, eqs, s.map(Rational(_))))
    }, minTests = 60)
  }

  private def r(n: Long, d: Long = 1): Rational = Rational(n, d)

  /** Chvátal's cycling example (Linear Programming, 1983, §3): max
    * 10x0 − 57x1 − 9x2 − 24x3 s.t. ½x0 − 11/2·x1 − 5/2·x2 + 9x3 + x4 = 0,
    * ½x0 − 3/2·x1 − ½x2 + x3 + x5 = 0, x0 + x6 = 1. The last row makes the
    * phase-1 objective (the column sums) equal that objective, so Dantzig
    * pricing with lowest-basis-index ratio ties cycles until Bland's rule
    * takes over.
    */
  private val cycling: (Int, Seq[Eq]) = (7, Seq(
    Eq(Seq(0 -> r(1, 2), 1 -> r(-11, 2), 2 -> r(-5, 2), 3 -> r(9), 4 -> r(1)), r(0)),
    Eq(Seq(0 -> r(1, 2), 1 -> r(-3, 2), 2 -> r(-1, 2), 3 -> r(1), 5 -> r(1)), r(0)),
    Eq(Seq(0 -> r(1), 6 -> r(1)), r(1)),
    Eq(Seq(0 -> r(8), 1 -> r(-50), 2 -> r(-6), 3 -> r(-34), 4 -> r(-1), 5 -> r(-1), 6 -> r(-1)), r(0))))

  private def blandAfter(n: Int, eqs: Seq[Eq]): Long = 4L * (eqs.size + n) + 200

  /** Random systems, each with whether it has a known non-negative point:
    * small signed coefficients (so repeated indices can sum to zero), zero
    * RHS (degenerate vertices), RHS of either sign, often infeasible, known
    * feasible when every RHS is zero; 0/1 partition systems with their RHS
    * evaluated on a known point; and the cycling example, which
    * `(1, 0, 1, 0, 2, 0, 0)` solves.
    */
  private val genSystem: Gen[(Int, Seq[Eq], Boolean)] = {
    val general = for {
      n <- Gen.chooseNum(1, 25)
      m <- Gen.chooseNum(0, 20)
      eqs <- Gen.listOfN(m, for {
        k <- Gen.chooseNum(0, 6)
        coeffs <- Gen.listOfN(k, Gen.zip(Gen.chooseNum(0, n - 1), Gen.chooseNum(-3L, 3L)))
        rhs <- Gen.frequency(3 -> Gen.const(0L), 5 -> Gen.chooseNum(-20L, 40L))
      } yield Eq(coeffs.map { case (j, c) => j -> r(c) }, r(rhs)))
    } yield (n, eqs, eqs.forall(_.rhs.isZero))
    val partition = for {
      n <- Gen.chooseNum(2, 40)
      truth <- Gen.listOfN(n, Gen.chooseNum(0L, 30L))
      m <- Gen.chooseNum(1, 30)
      subsets <- Gen.listOfN(m, Gen.listOfN(n, Gen.oneOf(true, false)))
    } yield (n, subsets.map { sel =>
      val vars = (0 until n).filter(sel)
      Eq(vars.map(_ -> Rational.One), r(vars.map(truth).sum))
    }, true)
    Gen.frequency(12 -> general, 6 -> partition, 1 -> Gen.const((cycling._1, cycling._2, true)))
  }

  test("Dantzig cycles on Chvátal's example; Bland's rule ends it at the dense vertex") {
    val (n, eqs) = cycling
    val v = vertex(n, eqs)
    assert(blandAfter(n, eqs) == 244 && v.pivots == 247, s"${v.pivots} pivots")
    assert(v.x.get.toSeq == Seq(1, 0, 1, 0, 2, 0, 0).map(r(_)) && solves(n, eqs, v.x.get))
  }

  test("random systems: every vertex is a solution; known-feasible ones are solved") {
    val seen = scala.collection.mutable.Set[String]()
    checkProp(Prop.forAll(genSystem) { case (n, eqs, known) =>
      val v = vertex(n, eqs)
      if (v.x.isEmpty) seen += "infeasible"
      if (eqs.exists(_.rhs.isZero)) seen += "zero rhs"
      if (eqs.exists(_.rhs.signum < 0)) seen += "negative rhs"
      if (eqs.exists(e => e.coeffs.map(_._1).distinct.size < e.coeffs.size)) seen += "repeated index"
      if (v.pivots > blandAfter(n, eqs)) seen += "bland"
      v.x.forall(solves(n, eqs, _)) && (!known || v.x.nonEmpty)
    }, minTests = 500)
    assert(seen == Set("infeasible", "zero rhs", "negative rhs", "repeated index", "bland"))
  }

  for ((name, w) <- Seq("WLs" -> (() => TestWorkloads.wls), "WLc" -> (() => TestWorkloads.wlc),
                        "JOB" -> (() => TestWorkloads.job)))
    test(s"$name: the vertex of every view LP satisfies A·x = b and x ≥ 0") {
      w().viewLps.foreach { lp =>
        assert(vertex(lp.nVars, lp.eqs).x.exists(solves(lp.nVars, lp.eqs, _)), s"view ${lp.relation}")
      }
    }

  for ((name, w) <- Seq("WLs" -> (() => TestWorkloads.wls), "JOB" -> (() => TestWorkloads.job)))
    test(s"$name: branch-and-bound finds an integral point of every view LP") {
      w().viewLps.foreach { lp =>
        val x = feasibleIntegral(lp.nVars, lp.eqs).x
        assert(x.exists(p => solves(lp.nVars, lp.eqs, p.map(Rational(_)))), s"view ${lp.relation}")
      }
    }

  test("JOB: the largest view reports the dense pivot count, its B&B nodes and its nnz") {
    val lp = TestWorkloads.job.viewLps.maxBy(_.nVars)
    val stats = LPFormulator.solveIntegral(lp).stats
    assert(stats.bbNodes == 1, "the root LP of this view is integral")
    assert(stats.pivots == vertex(lp.nVars, lp.eqs).pivots && stats.pivots > 0)
    assert(stats.nnz == lp.eqs.map(_.coeffs.size).sum)
  }

  test("branch-and-bound reports its nodes and the pivots of every node") {
    // x0 + 2·x1 = 1: the root vertex is x1 = ½; the branch x1 ≤ 0 (x1 + s = 0) gives (1, 0).
    val eqs = Seq(eq(1, 0 -> 1L, 1 -> 2L))
    val res = feasibleIntegral(2, eqs)
    assert(res.x.get.toSeq == Seq(BigInt(1), BigInt(0)) && res.nodes == 2)
    assert(res.pivots == vertex(2, eqs).pivots + vertex(3, eqs :+ eq(0, 1 -> 1L, 2 -> 1L)).pivots)
  }
}
