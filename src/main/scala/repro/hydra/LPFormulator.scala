package repro.hydra

import repro.core._
import repro.core.ViewGraph.SubView
import repro.lp.{Rational, Simplex}

/** Builds and solves the partitioned LP of one view (§4).
  *
  * One variable per block of each sub-view's partition; constraints are
  * (a) the view total per sub-view, (b) each CC encoded over the blocks of
  * every sub-view that covers its attributes, and (c) marginal-consistency
  * equalities between every pair of sub-views sharing attributes.
  *
  * Hydra instantiates this with region partitions ([[RegionPartition]]);
  * the DataSynth baseline reuses [[build]] with grid partitions.
  */
object LPFormulator {

  /** Solution for one sub-view: RIP-ordered rows of (block-box, count).
    * The box is the block's first box after shared-boundary refinement, so
    * its shared-dimension intervals are atomic cells (alignment-ready).
    */
  final case class SubViewSolution(sub: SubView, rows: Vector[(Box, Long)])

  /** `exact` is always true: [[solveIntegral]] throws rather than return a
    * solution that misses a constraint. It is kept for callers that report
    * it (the pipeline benchmark counts exact views). `pivots` and `bbNodes`
    * are the simplex pivots and LPs solved over the whole branch-and-bound
    * search (root included); `nnz` counts the coefficients of the LP rows.
    */
  final case class ViewLpStats(
      relation: String,
      numSubViews: Int,
      numVars: Int,
      numConstraints: Int,
      solveMillis: Long,
      exact: Boolean,
      pivots: Long = 0,
      bbNodes: Int = 0,
      nnz: Int = 0,
  )

  final case class ViewLpResult(
      relation: String,
      total: Long,
      solutions: Vector[SubViewSolution],
      stats: ViewLpStats,
  )

  /** A fully formulated (but unsolved) view LP. */
  final case class ViewLp(
      relation: String,
      total: Long,
      subs: Vector[SubView],
      parts: Vector[Vector[Block]],
      eqs: Vector[Simplex.Eq],
  ) {
    val nVars: Int = parts.map(_.size).sum
    val offsets: Vector[Int] = parts.scanLeft(0)(_ + _.size)
  }

  /** Number of LP variables (regions after refinement) without solving —
    * used by the Fig. 12 / Fig. 17 complexity benches.
    */
  def variableCount(schema: SchemaDef, relation: String, ccs: Seq[CC]): Int =
    regionPartitions(schema, relation, ccs)._2.map(_.size).sum

  /** Region partitions per sub-view, refined along shared-attribute
    * boundaries so that consistency constraints are expressible.
    */
  def regionPartitions(
      schema: SchemaDef,
      relation: String,
      ccs: Seq[CC],
  ): (Vector[SubView], Vector[Vector[Block]]) = {
    val nonTrue = ccs.filterNot(_.pred.isTrue)
    val subs = ViewGraph.subViews(nonTrue)
    val partitions = subs.map { s =>
      val dnfs = nonTrue.filter(_.pred.attrs.subsetOf(s.attrSet)).map(_.pred)
      RegionPartition.optimalPartition(domainOf(schema, s.attrs), s.attrs, dnfs)
    }
    (subs, alignSharedBoundaries(schema, subs, partitions))
  }

  def domainOf(schema: SchemaDef, attrs: Vector[String]): Box =
    Box(attrs.map(a => { val at = schema.attrByName(a); Interval(at.lo, at.hi) }))

  /** Refine each sub-view's partition so blocks respect the union of all
    * sub-views' split points along shared attributes, and are homogeneous
    * (single shared-cell signature) there.
    */
  def alignSharedBoundaries(
      schema: SchemaDef,
      subs: Vector[SubView],
      partitions: Vector[Vector[Block]],
  ): Vector[Vector[Block]] = {
    val attrUses: Map[String, Seq[Int]] =
      subs.zipWithIndex
        .flatMap { case (s, i) => s.attrs.map(_ -> i) }
        .groupBy(_._1)
        .map { case (a, xs) => a -> xs.map(_._2) }
    val sharedAttrs = attrUses.filter(_._2.size > 1).keySet
    val splitPoints: Map[String, Seq[Double]] = sharedAttrs.map { a =>
      val pts = attrUses(a).flatMap { i =>
        val dim = subs(i).attrs.indexOf(a)
        partitions(i).flatMap(_.boxes.flatMap(b => Seq(b.ivs(dim).lo, b.ivs(dim).hi)))
      }
      a -> pts.filterNot(_.isInfinite).distinct.sorted
    }.toMap
    subs.zipWithIndex.map { case (s, i) =>
      val sharedDims = s.attrs.zipWithIndex.collect { case (a, d) if sharedAttrs(a) => d }
      var blocks = partitions(i)
      sharedDims.foreach { d =>
        blocks = RegionPartition.refineDim(blocks, d, splitPoints(s.attrs(d)))
      }
      RegionPartition.splitBySignature(blocks, sharedDims)
    }
  }

  /** Encode totals, CC constraints and pairwise consistency over the given
    * per-sub-view partitions (Figure 7 of the paper, plus §4's consistency
    * constraints).
    */
  def build(
      schema: SchemaDef,
      relation: String,
      ccs: Seq[CC],
      total: Long,
      subs: Vector[SubView],
      parts: Vector[Vector[Block]],
  ): ViewLp = {
    val nonTrue = ccs.filterNot(_.pred.isTrue)
    val offsets = parts.scanLeft(0)(_ + _.size)
    val eqs = Vector.newBuilder[Simplex.Eq]

    // (a) Per-sub-view totals.
    for (i <- subs.indices)
      eqs += Simplex.Eq(
        (0 until parts(i).size).map(r => (offsets(i) + r) -> Rational.One),
        Rational(total))

    // (b) CC constraints, encoded in every covering sub-view.
    val reps = subs.indices.map(i => parts(i).map(_.representative(subs(i).attrs)))
    for (cc <- nonTrue; i <- subs.indices if cc.pred.attrs.subsetOf(subs(i).attrSet)) {
      val vars = reps(i).zipWithIndex.collect {
        case (p, r) if cc.pred.eval(p) => (offsets(i) + r) -> Rational.One
      }
      eqs += Simplex.Eq(vars, Rational(cc.card))
    }

    // (c) Pairwise marginal consistency over shared attributes.
    for (i <- subs.indices; j <- (i + 1) until subs.size) {
      val shared = subs(i).attrSet.intersect(subs(j).attrSet).toVector.sorted
      if (shared.nonEmpty) {
        def sig(s: SubView, b: Block): Vector[Double] =
          shared.map(a => b.boxes.head.ivs(s.attrs.indexOf(a)).lo)
        val gi = parts(i).zipWithIndex.groupBy { case (b, _) => sig(subs(i), b) }
        val gj = parts(j).zipWithIndex.groupBy { case (b, _) => sig(subs(j), b) }
        for (k <- (gi.keySet ++ gj.keySet).toVector.sortBy(_.mkString(","))) {
          val lhs = gi.getOrElse(k, Vector.empty).map { case (_, r) => (offsets(i) + r) -> Rational.One }
          val rhs = gj.getOrElse(k, Vector.empty).map { case (_, r) => (offsets(j) + r) -> Rational(-1) }
          eqs += Simplex.Eq(lhs ++ rhs, Rational.Zero)
        }
      }
    }
    ViewLp(relation, total, subs, parts, eqs.result())
  }

  /** Solve a view LP for an integral solution (Hydra path); fails, naming
    * the view, if the LP is infeasible or has no integral solution.
    */
  def solveIntegral(lp: ViewLp): ViewLpResult = {
    val t0 = System.nanoTime()
    if (lp.subs.isEmpty) {
      val stats = ViewLpStats(lp.relation, 0, 0, 0, 0, exact = true)
      return ViewLpResult(lp.relation, lp.total, Vector.empty, stats)
    }
    val size = s"${lp.eqs.size} eqs, ${lp.nVars} vars"
    val res = try Simplex.feasibleIntegral(lp.nVars, lp.eqs) catch {
      case e: IllegalStateException =>
        throw new IllegalStateException(s"LP for view ${lp.relation} ($size): ${e.getMessage}", e)
    }
    val sol = res.x.getOrElse(throw new IllegalStateException(s"infeasible LP for view ${lp.relation} ($size)"))
    val solutions = lp.subs.indices.map { i =>
      val rows = lp.parts(i).zipWithIndex.flatMap { case (b, r) =>
        val v = sol(lp.offsets(i) + r)
        if (!v.isValidLong)
          throw new ArithmeticException(
            s"LP for view ${lp.relation}: variable ${lp.offsets(i) + r} = $v does not fit in a Long")
        if (v.signum > 0) Some((b.boxes.head, v.toLong)) else None
      }
      SubViewSolution(lp.subs(i), rows)
    }.toVector
    val ms = (System.nanoTime() - t0) / 1000000
    ViewLpResult(lp.relation, lp.total, solutions,
      ViewLpStats(lp.relation, lp.subs.size, lp.nVars, lp.eqs.size, ms, exact = true,
        res.pivots, res.nodes, lp.eqs.map(_.coeffs.size).sum))
  }

  /** Solve a view LP over the rationals (DataSynth path: the masses feed a
    * probabilistic sampler, so fractional solutions are acceptable).
    */
  def solveFractional(lp: ViewLp): Option[Vector[Vector[(Block, Rational)]]] =
    Simplex.feasible(lp.nVars, lp.eqs).map { x =>
      lp.subs.indices.map { i =>
        lp.parts(i).zipWithIndex.map { case (b, r) => (b, x(lp.offsets(i) + r)) }
      }.toVector
    }

  /** Region-partitioned formulation + integral solve (the Hydra pipeline). */
  def solve(schema: SchemaDef, relation: String, ccs: Seq[CC], total: Long): ViewLpResult = {
    val t0 = System.nanoTime()
    val (subs, parts) = regionPartitions(schema, relation, ccs)
    val lp = build(schema, relation, ccs, total, subs, parts)
    val res = solveIntegral(lp)
    val ms = (System.nanoTime() - t0) / 1000000
    res.copy(stats = res.stats.copy(solveMillis = ms))
  }
}
