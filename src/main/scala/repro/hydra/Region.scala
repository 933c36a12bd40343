package repro.hydra

import repro.core.{Dnf, Interval}

/** Region-partitioning of a sub-view domain (§4.2, Algorithms 1 & 2).
  *
  * The optimal partition of Lemma 4.3 is the set of label classes of the
  * constraints, and §5.2 instantiates each region at one point, so a region
  * here *is* one representative point over the sub-view's attributes (the
  * lo-corner of a box of the region); its label is the constraints' truth
  * vector there. The LP, align & merge and the summary read nothing else.
  *
  * Blocks are split lazily, one dimension at a time, only by sub-constraints
  * that actually split them — crucially the "outside" of a split stays a
  * single block, which is what keeps region counts far below grid-cell
  * counts. One point per block is enough to do that exactly: while
  * dimension `d` is being split, every box of a block still spans the whole
  * domain on `d`, and every split clips all of them alike. So each piece of
  * the block is its extent on the other dimensions times one list of 1-D
  * intervals on `d`, which decides whether a sub-constraint splits it, and
  * the piece's first box has the lo-corner
  * `rep.updated(d, intervals.head.lo)`. Merging
  * blocks keeps the first one's point. The regions' points and their order
  * are therefore those of the box-by-box algorithm.
  *
  * The blocks of one view's sub-views are never split again to align them:
  * [[LPFormulator.regionPartitions]] hands Algorithm 1 each sub-view's
  * separator restrictions as extra DNFs, and the labels do the rest.
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
object RegionPartition {

  /** Algorithm 1: the optimal partition of `domain` (one interval per
    * attribute of `attrs`) w.r.t. DNF constraints — Algorithm 2's valid
    * partition with alive-set pruning, coarsened by merging blocks with
    * identical constraint-satisfaction labels. Returns each region's
    * representative point, ordered by it.
    */
  def optimalPartition(domain: Vector[Interval], attrs: Vector[String], dnfs: Seq[Dnf]): Vector[Vector[Double]] = {
    val subCs = dnfs.flatMap(_.conjuncts).distinct.toVector
    val subIdx = subCs.zipWithIndex.toMap
    val owners: Vector[Vector[Int]] = // DNF -> indices of its conjuncts
      dnfs.toVector.map(_.conjuncts.map(subIdx).toVector)
    // Blocks grouped by `key` of their alive-sets; a group keeps its first
    // member's point, and the groups are ordered by it.
    def merged[K](p: Vector[(Vector[Double], Set[Int])])(key: Set[Int] => K) =
      p.groupBy(b => key(b._2)).toVector.map(_._2.head).sortBy(_._1.mkString(","))
    // Each block's representative and the indices of the sub-constraints it
    // still fully satisfies on all processed dimensions.
    var p: Vector[(Vector[Double], Set[Int])] = Vector((domain.map(_.lo), subCs.indices.toSet))
    for (dim <- attrs.indices) {
      // While `dim` is split, a block's pieces differ only in their
      // intervals on `dim`.
      var q = p.map { case (rep, alive) => (rep, Vector(domain(dim)), alive) }
      for (ci <- subCs.indices; iv <- subCs(ci).restriction(attrs(dim))) {
        q = q.flatMap { case b @ (rep, ivs, alive) =>
          if (!alive.contains(ci)) Vector(b)
          else {
            val in = ivs.map(_.intersect(iv)).filterNot(_.isEmpty)
            val out = ivs.flatMap(_.minus(iv))
            if (out.isEmpty) Vector(b)                          // C_i holds everywhere
            else if (in.isEmpty) Vector((rep, ivs, alive - ci)) // C_i fails everywhere
            else Vector((rep, in, alive), (rep, out, alive - ci))
          }
        }
      }
      // Merge blocks that are indistinguishable from here on.
      p = merged(q.map { case (rep, ivs, alive) => (rep.updated(dim, ivs.head.lo), alive) })(identity)
    }
    merged(p)(alive => owners.map(_.exists(alive.contains))).map(_._1)
  }
}
