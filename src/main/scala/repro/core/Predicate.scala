package repro.core

import org.apache.spark.sql.Column
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
  def overlaps(o: Interval): Boolean = !intersect(o).isEmpty
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
