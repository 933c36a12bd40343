package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.util.SQLOrderingUtil.compareDoubles
import org.apache.spark.sql.functions.{col, lit}

/** DNF predicate algebra over numeric attributes (§4.1).
  *
  * A constraint predicate is a disjunction of conjunctions ("sub-constraints")
  * of per-attribute half-open range restrictions. This is exactly the class
  * the paper's LP formulation supports (filters on non-key attributes in DNF).
  */

/** Half-open interval `[lo, hi)`. Use ±Infinity for open sides. */
final case class Interval(lo: Double, hi: Double) {
  def isEmpty: Boolean = lo >= hi
  def contains(x: Double): Boolean = x >= lo && x < hi
  def intersect(o: Interval): Interval = Interval(math.max(lo, o.lo), math.min(hi, o.hi))
  /** Parts of this interval NOT covered by `o` (0, 1 or 2 pieces). */
  def minus(o: Interval): Seq[Interval] =
    Seq(Interval(lo, math.min(hi, o.lo)), Interval(math.max(lo, o.hi), hi)).filterNot(_.isEmpty)
}

/** A single per-attribute range restriction: `attr ∈ [lo, hi)`. */
final case class AttrRange(attr: String, iv: Interval)

/** A sub-constraint: conjunction of per-attribute ranges (§4.2).
  * At most one range per attribute (ranges on the same attribute are
  * pre-intersected by the smart constructor in [[Conjunct.of]]).
  */
final case class Conjunct(ranges: Seq[AttrRange]) {
  require(ranges.map(_.attr).distinct.size == ranges.size, "one range per attribute")
  def attrs: Set[String] = ranges.map(_.attr).toSet
  /** Restriction to a single attribute (Def. 4.5); None means "true". */
  def restriction(attr: String): Option[Interval] = ranges.find(_.attr == attr).map(_.iv)
  def eval(point: Map[String, Double]): Boolean =
    ranges.forall(r => r.iv.contains(point(r.attr)))
  def and(o: Conjunct): Option[Conjunct] = Conjunct.of(ranges ++ o.ranges)
  def toSql: String =
    if (ranges.isEmpty) "TRUE"
    else ranges.map { r =>
      val parts = Seq(
        if (r.iv.lo.isNegInfinity) None else Some(s"${r.attr} >= ${r.iv.lo}"),
        if (r.iv.hi.isPosInfinity) None else Some(s"${r.attr} < ${r.iv.hi}"),
      ).flatten
      if (parts.isEmpty) "TRUE" else parts.mkString("(", " AND ", ")")
    }.mkString("(", " AND ", ")")
  def toColumn: Column =
    if (ranges.isEmpty) lit(true)
    else ranges.map { r =>
      val lo = if (r.iv.lo.isNegInfinity) lit(true) else col(r.attr) >= lit(r.iv.lo)
      val hi = if (r.iv.hi.isPosInfinity) lit(true) else col(r.attr) < lit(r.iv.hi)
      lo && hi
    }.reduce(_ && _)
}

object Conjunct {
  val True: Conjunct = Conjunct(Nil)
  /** Build a conjunct intersecting repeated-attribute ranges; None if empty. */
  def of(ranges: Seq[AttrRange]): Option[Conjunct] = {
    val merged = ranges.groupBy(_.attr).toSeq.sortBy(_._1).map { case (a, rs) =>
      AttrRange(a, rs.map(_.iv).reduce(_ intersect _))
    }
    if (merged.exists(_.iv.isEmpty)) None else Some(Conjunct(merged))
  }
  def range(attr: String, lo: Double, hi: Double): Conjunct =
    Conjunct(Seq(AttrRange(attr, Interval(lo, hi))))
}

/** A DNF predicate: disjunction of sub-constraints. Empty = "true". */
final case class Dnf(conjuncts: Seq[Conjunct]) {
  def attrs: Set[String] = conjuncts.flatMap(_.attrs).toSet
  def isTrue: Boolean = conjuncts.isEmpty
  def eval(point: Map[String, Double]): Boolean =
    isTrue || conjuncts.exists(_.eval(point))
  /** Conjoin two DNFs (distributes; drops contradictory conjuncts). A
    * contradiction has no DNF here (the empty one is `True`), so it fails.
    */
  def and(o: Dnf): Dnf =
    if (isTrue) o
    else if (o.isTrue) this
    else {
      val cs = for { a <- conjuncts; b <- o.conjuncts; c <- a.and(b) } yield c
      require(cs.nonEmpty, s"contradiction: $toSql AND ${o.toSql} is unsatisfiable")
      Dnf(cs)
    }
  def toSql: String =
    if (isTrue) "TRUE" else conjuncts.map(_.toSql).mkString("(", " OR ", ")")
  def toColumn: Column =
    if (isTrue) lit(true) else conjuncts.map(_.toColumn).reduce(_ || _)
}

object Dnf {
  val True: Dnf = Dnf(Nil)
  def of(cs: Conjunct*): Dnf = Dnf(cs)
}

/** Counts, in one pass over rows, the rows each of a list of DNFs holds on:
  * for every DNF, exactly Spark's `COUNT(CASE WHEN dnf THEN 1 END)` with the
  * DNF as [[Dnf.toColumn]]. A row holds the doubles of [[attrs]], in that
  * order, each possibly null.
  *
  * Built once by [[DnfCounter.of]], it is flat arrays of ranges (attribute
  * index, lo, hi), so a Spark task can count with it without generated code
  * per predicate. It follows [[Dnf.toColumn]]:
  *  - a null value fails every range with a finite bound;
  *  - `lo = -∞` and `hi = +∞` are no bound, and a range with both holds even
  *    on null (`toColumn`'s `lit(true)`);
  *  - values compare as Spark compares doubles (`compareDoubles`): −0.0
  *    equals 0.0, and NaN sorts above every double, so it passes `>= lo` and
  *    fails `< hi`;
  *  - a DNF counts a row once if any conjunct holds; `TRUE` counts every row.
  */
final class DnfCounter private (
    val attrs: Vector[String],
    firstConjunct: Array[Int], // DNF d's conjuncts: firstConjunct(d) until firstConjunct(d + 1)
    firstRange: Array[Int],    // conjunct c's ranges: firstRange(c) until firstRange(c + 1)
    attr: Array[Int],
    lo: Array[Double],
    hi: Array[Double],
) extends Serializable {

  /** How many of `rows` each DNF holds on, in the DNFs' order. */
  def count(rows: Iterator[InternalRow]): Array[Long] = {
    val counts = new Array[Long](firstConjunct.length - 1)
    rows.foreach { row =>
      var d = 0
      while (d < counts.length) {
        if (holds(d, row)) counts(d) += 1
        d += 1
      }
    }
    counts
  }

  private def holds(d: Int, row: InternalRow): Boolean = {
    var c = firstConjunct(d)
    var any = false
    while (!any && c < firstConjunct(d + 1)) {
      var k = firstRange(c)
      var all = true
      while (all && k < firstRange(c + 1)) {
        all = inRange(k, row)
        k += 1
      }
      any = all
      c += 1
    }
    any
  }

  private def inRange(k: Int, row: InternalRow): Boolean = !row.isNullAt(attr(k)) && {
    val x = row.getDouble(attr(k))
    (lo(k) == Double.NegativeInfinity || compareDoubles(x, lo(k)) >= 0) &&
    (hi(k) == Double.PositiveInfinity || compareDoubles(x, hi(k)) < 0)
  }
}

object DnfCounter {
  def of(dnfs: Seq[Dnf]): DnfCounter = {
    val attrs = dnfs.flatMap(_.attrs).distinct.sorted.toVector
    val conjuncts = dnfs.map(d => if (d.isTrue) Seq(Conjunct.True) else d.conjuncts)
    // A range with no finite bound holds on every row, null included.
    val ranges = conjuncts.flatten.map(_.ranges.filterNot(r => r.iv.lo.isNegInfinity && r.iv.hi.isPosInfinity))
    val flat = ranges.flatten
    new DnfCounter(
      attrs,
      conjuncts.scanLeft(0)(_ + _.size).toArray,
      ranges.scanLeft(0)(_ + _.size).toArray,
      flat.map(r => attrs.indexOf(r.attr)).toArray,
      flat.map(_.iv.lo).toArray,
      flat.map(_.iv.hi).toArray)
  }
}
