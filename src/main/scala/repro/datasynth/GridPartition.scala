package repro.datasynth

import repro.core._
import repro.core.ViewGraph.SubView

/** DataSynth's grid-partitioning strategy (§3.2, Figure 3a).
  *
  * Every attribute's domain is intervalized at all constants appearing in
  * the view's CCs on that attribute; a sub-view with n attributes of ℓᵢ
  * intervals each yields a grid of ∏ℓᵢ cells, one LP variable per cell.
  * Cell counts are computed exactly (BigInt) without enumeration, so the
  * complexity comparison (Fig. 12/17) works even where the grid LP is far
  * beyond any solver's capacity.
  */
object GridPartition {

  /** Interval boundaries for attribute `a`: domain bounds plus every finite
    * constant that any CC of the view imposes on `a`.
    */
  def boundaries(schema: SchemaDef, ccs: Seq[CC], a: String): Vector[Double] = {
    val at = schema.attrByName(a)
    val consts = for {
      cc <- ccs
      c <- cc.pred.conjuncts
      iv <- c.restriction(a).toSeq
      p <- Seq(iv.lo, iv.hi) if !p.isInfinite && p > at.lo && p < at.hi
    } yield p
    (Vector(at.lo, at.hi) ++ consts).distinct.sorted
  }

  /** The grid intervals of attribute `a`, in order. */
  def intervals(schema: SchemaDef, ccs: Seq[CC], a: String): Vector[Interval] =
    boundaries(schema, ccs, a).sliding(2).map(w => Interval(w(0), w(1))).toVector

  /** Exact number of grid cells of one sub-view. */
  def cellCount(schema: SchemaDef, ccs: Seq[CC], sub: SubView): BigInt =
    sub.attrs.map(a => BigInt(boundaries(schema, ccs, a).size - 1)).product

  /** Total grid variables across all sub-views of a view. */
  def variableCount(schema: SchemaDef, ccs: Seq[CC]): BigInt = {
    val nonTrue = ccs.filterNot(_.pred.isTrue)
    ViewGraph.subViews(nonTrue).map(cellCount(schema, nonTrue, _)).sum
  }

  /** Enumerate the grid cells of a sub-view, one interval per attribute.
    * Because boundaries are per-attribute (view-wide), shared dimensions are
    * aligned across sub-views cell by cell.
    */
  def cells(schema: SchemaDef, ccs: Seq[CC], sub: SubView): Vector[Vector[Interval]] =
    sub.attrs.map(intervals(schema, ccs, _)).foldLeft(Vector(Vector.empty[Interval])) { (acc, ivs) =>
      for (prefix <- acc; iv <- ivs) yield prefix :+ iv
    }
}
