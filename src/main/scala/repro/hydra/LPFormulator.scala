package repro.hydra

import repro.core._
import repro.core.ViewGraph.SubView
import repro.lp.{Rational, Simplex}

/** Builds and solves the partitioned LP of one view (§4).
  *
  * One variable per region of each sub-view's partition, given by its
  * representative point; constraints are (a) the view total per sub-view,
  * (b) each CC encoded over the regions of every sub-view that covers its
  * attributes, and (c) consistency on each clique-tree edge
  * ([[ViewGraph.SubView]]): per key class of the child, the child's
  * regions hold as many tuples as its parent's. Every partition is
  * homogeneous in the keys' restrictions ([[regionPartitions]]), so on one
  * key class each region is a product of the class and its other
  * attributes, which is what lets align & merge ([[SummaryGenerator]])
  * pair tuples class by class.
  *
  * Hydra instantiates this with region partitions ([[RegionPartition]]);
  * the DataSynth baseline reuses [[build]] with the lo-corners of its grid
  * cells and sub-views keyed by its grid intervals.
  */
object LPFormulator {

  /** Solution for one sub-view: RIP-ordered rows of (the region's point,
    * count).
    */
  final case class SubViewSolution(sub: SubView, rows: Vector[(Vector[Double], Long)])

  /** `exact` is always true: [[solveIntegral]] throws rather than return a
    * solution that misses a constraint. It is kept for callers that report
    * it (the pipeline benchmark counts exact views). `pivots` and `bbNodes`
    * are the simplex pivots and LPs solved over the whole branch-and-bound
    * search (root included); `nnz` counts the coefficients of the LP rows.
    */
  final case class ViewLpStats(
      relation: String,
      numVars: Int,
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
      parts: Vector[Vector[Vector[Double]]],
      eqs: Vector[Simplex.Eq],
  ) {
    val nVars: Int = parts.map(_.size).sum
    val offsets: Vector[Int] = parts.scanLeft(0)(_ + _.size)
  }

  /** Number of LP variables (regions) without solving — used by the
    * Fig. 12 / Fig. 17 complexity benches.
    */
  def variableCount(schema: SchemaDef, relation: String, ccs: Seq[CC]): Int =
    regionPartitions(schema, relation, ccs)._2.map(_.size).sum

  /** Region partitions per sub-view: Algorithm 1 over the sub-view's CCs
    * plus one single-conjunct DNF per CC conjunct restricted to each
    * separator, or separator intersection, that the sub-view holds.
    */
  def regionPartitions(
      schema: SchemaDef,
      relation: String,
      ccs: Seq[CC],
  ): (Vector[SubView], Vector[Vector[Vector[Double]]]) = {
    val nonTrue = ccs.filterNot(_.pred.isTrue)
    val subs = ViewGraph.subViews(nonTrue)
    val family = ViewGraph.separatorFamily(subs)
    val conjuncts = nonTrue.flatMap(_.pred.conjuncts).distinct
    val partitions = subs.map { s =>
      val dnfs = nonTrue.filter(_.pred.attrs.subsetOf(s.attrSet)).map(_.pred)
      val seps = ViewGraph.restrictions(conjuncts, family, s.attrSet).map(Dnf.of(_))
      RegionPartition.optimalPartition(domainOf(schema, s.attrs), s.attrs, dnfs ++ seps)
    }
    (subs, partitions)
  }

  def domainOf(schema: SchemaDef, attrs: Vector[String]): Vector[Interval] =
    attrs.map(a => { val at = schema.attrByName(a); Interval(at.lo, at.hi) })

  /** Encode totals, CC constraints and clique-tree consistency over the
    * given per-sub-view partitions (Figure 7 of the paper, plus §4's
    * consistency constraints, one row per key class of each sub-view).
    */
  def build(
      schema: SchemaDef,
      relation: String,
      ccs: Seq[CC],
      total: Long,
      subs: Vector[SubView],
      parts: Vector[Vector[Vector[Double]]],
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
    val reps = subs.indices.map(i => parts(i).map(subs(i).attrs.zip(_).toMap))
    for (cc <- nonTrue; i <- subs.indices if cc.pred.attrs.subsetOf(subs(i).attrSet)) {
      val vars = reps(i).zipWithIndex.collect {
        case (p, r) if cc.pred.eval(p) => (offsets(i) + r) -> Rational.One
      }
      eqs += Simplex.Eq(vars, Rational(cc.card))
    }

    // (c) Consistency on each clique-tree edge, one row per key class.
    for ((s, i) <- subs.zipWithIndex if s.key.nonEmpty) {
      def keyed(j: Int, coeff: Rational) =
        parts(j).indices.map(r => s.keyClass(subs(j).attrs, parts(j)(r)) -> ((offsets(j) + r) -> coeff))
      val vars = keyed(s.parent, Rational.One) ++ keyed(i, Rational(-1))
      val byKey = vars.groupMap(_._1)(_._2)
      for (k <- vars.map(_._1).distinct) eqs += Simplex.Eq(byKey(k), Rational.Zero)
    }
    ViewLp(relation, total, subs, parts, eqs.result())
  }

  /** Solve a view LP for an integral solution (Hydra path); fails, naming
    * the view, if the LP is infeasible or has no integral solution.
    */
  def solveIntegral(lp: ViewLp): ViewLpResult = {
    if (lp.subs.isEmpty) {
      val stats = ViewLpStats(lp.relation, 0, exact = true)
      return ViewLpResult(lp.relation, lp.total, Vector.empty, stats)
    }
    val size = s"${lp.eqs.size} eqs, ${lp.nVars} vars"
    val res = try Simplex.feasibleIntegral(lp.nVars, lp.eqs) catch {
      case e: IllegalStateException =>
        throw new IllegalStateException(s"LP for view ${lp.relation} ($size): ${e.getMessage}", e)
    }
    val sol = res.x.getOrElse(throw new IllegalStateException(s"infeasible LP for view ${lp.relation} ($size)"))
    val solutions = lp.subs.indices.map { i =>
      val rows = lp.parts(i).zipWithIndex.flatMap { case (pt, r) =>
        val v = sol(lp.offsets(i) + r)
        if (!v.isValidLong)
          throw new ArithmeticException(
            s"LP for view ${lp.relation}: variable ${lp.offsets(i) + r} = $v does not fit in a Long")
        if (v.signum > 0) Some((pt, v.toLong)) else None
      }
      SubViewSolution(lp.subs(i), rows)
    }.toVector
    ViewLpResult(lp.relation, lp.total, solutions,
      ViewLpStats(lp.relation, lp.nVars, exact = true, res.pivots, res.nodes, lp.eqs.map(_.coeffs.size).sum))
  }

  /** Solve a view LP over the rationals (DataSynth path: the masses feed a
    * probabilistic sampler, so fractional solutions are acceptable). The
    * masses of each sub-view are in `lp.parts` order.
    */
  def solveFractional(lp: ViewLp): Option[Vector[Vector[Rational]]] =
    Simplex.feasible(lp.nVars, lp.eqs).map { x =>
      lp.parts.indices.map(i => Vector.tabulate(lp.parts(i).size)(r => x(lp.offsets(i) + r))).toVector
    }

  /** Region-partitioned formulation + integral solve (the Hydra pipeline). */
  def solve(schema: SchemaDef, relation: String, ccs: Seq[CC], total: Long): ViewLpResult = {
    val (subs, parts) = regionPartitions(schema, relation, ccs)
    solveIntegral(build(schema, relation, ccs, total, subs, parts))
  }
}
