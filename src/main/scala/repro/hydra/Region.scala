package repro.hydra

import repro.core.{Conjunct, Dnf, Interval}

/** Region-partitioning of a sub-view domain (§4.2, Algorithms 1 & 2).
  *
  * A [[Box]] is an axis-aligned product of half-open intervals over the
  * sub-view's attributes; a [[Block]] is a union of disjoint boxes. Blocks
  * are split lazily, one dimension at a time, only by sub-constraints that
  * actually split them — crucially the "outside" of a split stays a single
  * block, which is what keeps region counts far below grid-cell counts.
  *
  * Implementation note: a literal reading of Algorithm 2 re-splits every
  * block by every sub-constraint at every dimension, which materializes a
  * near-grid intermediate partition on wide sub-views. We additionally track
  * for each block which sub-constraints are still *alive* (no processed
  * dimension refuted them): dead sub-constraints are homogeneous on the
  * block forever, so they never split it again, and blocks with identical
  * alive-sets are merged eagerly (they are indistinguishable for all future
  * splitting and for the final labels). The final label-coarsening of
  * Algorithm 1 is unchanged, so the result is still the unique optimal
  * partition of Lemma 4.3 — only the intermediate work shrinks from the
  * grid product to (near) the output size.
  */
final case class Box(ivs: Vector[Interval]) {
  def loPoint: Vector[Double] = ivs.map(_.lo)
  /** Piece of this box inside `iv` along `dim` (if any). */
  def clip(dim: Int, iv: Interval): Option[Box] = {
    val x = ivs(dim).intersect(iv)
    if (x.isEmpty) None else Some(Box(ivs.updated(dim, x)))
  }
  /** Pieces of this box outside `iv` along `dim` (0–2 boxes). */
  def minus(dim: Int, iv: Interval): Seq[Box] =
    ivs(dim).minus(iv).map(p => Box(ivs.updated(dim, p)))
}

final case class Block(boxes: Vector[Box]) {
  require(boxes.nonEmpty, "empty block")
  /** Deterministic representative point: the lo-corner of the first box. */
  def representative(attrs: Vector[String]): Map[String, Double] =
    attrs.zip(boxes.head.loPoint).toMap
}

object RegionPartition {

  /** Algorithm 2 with alive-set pruning: valid partition of `domain` w.r.t.
    * the given sub-constraints, returned with each block's final alive-set
    * (the sub-constraints the whole block satisfies).
    */
  def validPartitionLabeled(
      domain: Box,
      attrs: Vector[String],
      subCs: Vector[Conjunct],
  ): Vector[(Block, Set[Int])] = {
    // A block and the indices of sub-constraints it still fully satisfies
    // on all processed dimensions.
    var p: Vector[(Vector[Box], Set[Int])] = Vector((Vector(domain), subCs.indices.toSet))
    for (dim <- attrs.indices) {
      val restrictions: Seq[(Int, Interval)] =
        subCs.indices.flatMap(ci => subCs(ci).restriction(attrs(dim)).map(ci -> _))
      for ((ci, iv) <- restrictions) {
        p = p.flatMap { case (boxes, alive) =>
          if (!alive.contains(ci)) Vector((boxes, alive))
          else {
            val in = boxes.flatMap(_.clip(dim, iv))
            val out = boxes.flatMap(_.minus(dim, iv))
            if (out.isEmpty) Vector((boxes, alive))           // C_i holds everywhere
            else if (in.isEmpty) Vector((boxes, alive - ci))  // C_i fails everywhere
            else Vector((in, alive), (out, alive - ci))
          }
        }
      }
      // Merge blocks that are indistinguishable from here on.
      p = p.groupBy(_._2).toVector
        .sortBy(_._2.head._1.head.loPoint.mkString(","))
        .map { case (alive, bs) => (bs.flatMap(_._1), alive) }
    }
    p.map { case (boxes, alive) => (Block(boxes), alive) }
  }

  /** Algorithm 1: optimal partition of `domain` w.r.t. DNF constraints —
    * the valid partition coarsened by merging blocks with identical
    * constraint-satisfaction labels.
    */
  def optimalPartition(domain: Box, attrs: Vector[String], dnfs: Seq[Dnf]): Vector[Block] = {
    val subCs = dnfs.flatMap(_.conjuncts).distinct.toVector
    val subIdx = subCs.zipWithIndex.toMap
    val owners: Vector[Vector[Int]] = // DNF -> indices of its conjuncts
      dnfs.toVector.map(_.conjuncts.map(subIdx).toVector)
    val labeled = validPartitionLabeled(domain, attrs, subCs)
    labeled
      .groupBy { case (_, alive) => owners.map(_.exists(alive.contains)) }
      .toVector
      .sortBy(_._2.head._1.boxes.head.loPoint.mkString(","))
      .map { case (_, bs) => Block(bs.flatMap(_._1.boxes)) }
  }

  /** Split every box of every block at the given points along `dim`
    * (block membership is unchanged — only box granularity increases).
    */
  def refineDim(blocks: Vector[Block], dim: Int, points: Seq[Double]): Vector[Block] = {
    val ps = points.distinct.sorted
    def splitBox(b: Box): Seq[Box] = {
      val iv = b.ivs(dim)
      val inner = ps.filter(p => p > iv.lo && p < iv.hi)
      val bounds = (iv.lo +: inner) :+ iv.hi
      bounds.sliding(2).map(w => Box(b.ivs.updated(dim, Interval(w(0), w(1))))).toSeq
    }
    blocks.map(b => Block(b.boxes.flatMap(splitBox)))
  }

  /** Split each block into sub-blocks that are homogeneous along the given
    * dimensions (grouping boxes by their lo-corner signature there). Used to
    * make regions respect shared-attribute cell boundaries so that
    * consistency constraints and deterministic alignment are well defined.
    */
  def splitBySignature(blocks: Vector[Block], dims: Seq[Int]): Vector[Block] =
    blocks.flatMap { b =>
      b.boxes
        .groupBy(box => dims.map(d => box.ivs(d).lo).toVector)
        .toVector
        .sortBy(_._1.mkString(","))
        .map { case (_, boxes) => Block(boxes) }
    }
}
