package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions.{count, when}
import org.apache.spark.sql.types.{DoubleType, StructField, StructType}
import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.{PropSupport, SparkSpec}
import scala.jdk.CollectionConverters._

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

/** [[DnfCounter]] against Spark's own `count(when(dnf.toColumn, 1))`. */
class DnfCounterSpec extends SparkSpec with PropSupport {
  private val attrs = Vector("a0", "a1", "a2")
  private val sparkSchema = StructType(attrs.map(StructField(_, DoubleType, nullable = true)))

  private val special = Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, -0.0, 0.0)
  private val grid = Seq(-2.0, -1.0, 0.0, 1.0, 2.0) // every finite bound is one of these
  private val genValue: Gen[java.lang.Double] = Gen.frequency(
    2 -> Gen.const(null),
    3 -> Gen.oneOf(special).map(Double.box),
    3 -> Gen.oneOf(grid).map(Double.box),
    4 -> Gen.chooseNum(-3.0, 3.0).map(Double.box))
  private val genLo = Gen.frequency(4 -> Gen.oneOf(grid), 2 -> Gen.const(Double.NegativeInfinity),
    1 -> Gen.const(-0.0), 1 -> Gen.const(Double.PositiveInfinity))
  private val genHi = Gen.frequency(4 -> Gen.oneOf(grid), 2 -> Gen.const(Double.PositiveInfinity),
    1 -> Gen.const(-0.0), 1 -> Gen.const(Double.NegativeInfinity))
  private val genConjunct: Gen[Conjunct] = for {
    n <- Gen.chooseNum(0, attrs.size)
    on <- Gen.pick(n, attrs)
    ranges <- Gen.sequence[Seq[AttrRange], AttrRange](
      on.toSeq.map(a => for (lo <- genLo; hi <- genHi) yield AttrRange(a, Interval(lo, hi))))
  } yield Conjunct(ranges)
  private val genDnf: Gen[Dnf] = Gen.frequency(
    1 -> Gen.const(Dnf.True),
    6 -> Gen.chooseNum(1, 3).flatMap(Gen.listOfN(_, genConjunct)).map(Dnf(_)),
    2 -> genConjunct.map(c => Dnf.of(c, c))) // one row, two holding conjuncts
  private val genCase = for {
    dnfs <- Gen.chooseNum(1, 8).flatMap(Gen.listOfN(_, genDnf))
    rows <- Gen.chooseNum(0, 40).flatMap(Gen.listOfN(_, Gen.listOfN(attrs.size, genValue)))
  } yield (dnfs, rows)

  /** What the cases held, so the property cannot pass on easy ones only. */
  private val seen = scala.collection.mutable.Set[String]()
  private def note(dnfs: Seq[Dnf], rows: Seq[Seq[java.lang.Double]]): Unit = {
    val values = rows.flatten
    if (values.contains(null)) seen += "null"
    values.filter(_ != null).map(_.doubleValue).foreach { x =>
      if (x.isNaN) seen += "NaN"
      if (x.isPosInfinity) seen += "+Inf"
      if (x.isNegInfinity) seen += "-Inf"
      if (x == 0.0 && 1 / x < 0) seen += "-0.0"
    }
    val ranges = dnfs.flatMap(_.conjuncts).flatMap(_.ranges)
    if (ranges.exists(r => r.iv.lo.isNegInfinity != r.iv.hi.isPosInfinity)) seen += "one infinite bound"
    if (ranges.exists(r => r.iv.lo.isNegInfinity && r.iv.hi.isPosInfinity)) seen += "both infinite"
    if (dnfs.exists(_.isTrue)) seen += "TRUE"
    for (d <- dnfs; row <- rows) {
      val point = attrs.zip(row).collect { case (a, v) if v != null => a -> v.doubleValue }.toMap
      val on = (r: AttrRange) => point.get(r.attr).exists(x => x == r.iv.lo || x == r.iv.hi)
      if (d.conjuncts.exists(_.ranges.exists(on))) seen += "on a bound"
      if (d.conjuncts.count(c => c.ranges.forall(r => point.get(r.attr).exists(r.iv.contains))) > 1)
        seen += "overlapping conjuncts"
    }
  }

  test("counts equal Spark's count(when(dnf.toColumn, 1)) on nulls, NaN, ±Infinity, -0.0 and bounds (seeded property)") {
    checkProp(Prop.forAll(genCase) { case (dnfs, rows) =>
      note(dnfs, rows)
      val df = spark.createDataFrame(rows.map(r => Row.fromSeq(r)).asJava, sparkSchema)
      val want = df.select(dnfs.map(d => count(when(d.toColumn, 1))): _*).head().toSeq.map(_.asInstanceOf[Long])
      val counter = DnfCounter.of(dnfs)
      val got = counter.count(rows.iterator.map(r =>
        InternalRow.fromSeq(counter.attrs.map(a => r(attrs.indexOf(a))))))
      got.toSeq == want
    }, minTests = 150, seed = Some(20181L))
    assert(seen == Set("null", "NaN", "+Inf", "-Inf", "-0.0", "one infinite bound", "both infinite",
      "TRUE", "on a bound", "overlapping conjuncts"))
  }

  test("a range with no finite bound holds on null; one finite bound fails it") {
    val open = Dnf.of(Conjunct(Seq(AttrRange("a0", Interval(Double.NegativeInfinity, Double.PositiveInfinity)))))
    val half = Dnf.of(Conjunct(Seq(AttrRange("a0", Interval(Double.NegativeInfinity, 1)))))
    val counter = DnfCounter.of(Seq(open, half, Dnf.True))
    assert(counter.attrs == Seq("a0"))
    val rows = Seq(InternalRow(null), InternalRow(0.5), InternalRow(Double.NaN))
    assert(counter.count(rows.iterator).toSeq == Seq(3L, 1L, 3L))
  }
}
