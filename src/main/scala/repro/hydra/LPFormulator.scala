package repro.hydra

import repro.core._
import repro.core.ViewGraph.SubView
import repro.lp.{Rational, Simplex}

/** Builds and solves the partitioned LP of one view (§4).
  *
  * One variable per block of each sub-view's partition; constraints are
  * (a) the view total per sub-view, (b) each CC encoded over the blocks of
  * every sub-view that covers its attributes, and (c) consistency on each
  * clique-tree edge: per key class of the child's separator, the child's
  * blocks hold as many tuples as the parent's. A key class is a truth
  * vector of the CC conjuncts restricted to the separator and to the
  * separator intersections inside it. Every partition is homogeneous in
  * those restrictions ([[regionPartitions]]), so on one key class each
  * block is a product of the class and its other attributes, which is what
  * lets align & merge ([[SummaryGenerator]]) pair tuples class by class.
  *
  * Hydra instantiates this with region partitions ([[RegionPartition]]);
  * the DataSynth baseline reuses [[build]] with grid partitions, keyed by
  * its grid intervals.
  */
object LPFormulator {

  /** Solution for one sub-view: RIP-ordered rows of (the block's first box,
    * count). `key` lists the separator restrictions whose truth vector at a
    * row's lo-corner is its key class (empty for the first sub-view).
    */
  final case class SubViewSolution(sub: SubView, key: Vector[Conjunct], rows: Vector[(Box, Long)])

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

  /** A fully formulated (but unsolved) view LP; `keys(i)` are the separator
    * restrictions that key sub-view `i` against its parent.
    */
  final case class ViewLp(
      relation: String,
      total: Long,
      subs: Vector[SubView],
      parts: Vector[Vector[Block]],
      keys: Vector[Vector[Conjunct]],
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
  ): (Vector[SubView], Vector[Vector[Block]]) = {
    val nonTrue = ccs.filterNot(_.pred.isTrue)
    val subs = ViewGraph.subViews(nonTrue)
    val (_, _, family) = cliqueTree(relation, subs)
    val conjuncts = nonTrue.flatMap(_.pred.conjuncts).distinct
    val partitions = subs.map { s =>
      val dnfs = nonTrue.filter(_.pred.attrs.subsetOf(s.attrSet)).map(_.pred)
      val seps = restrictions(conjuncts, family, s.attrSet).map(Dnf.of(_))
      RegionPartition.optimalPartition(domainOf(schema, s.attrs), s.attrs, dnfs ++ seps)
    }
    (subs, partitions)
  }

  def domainOf(schema: SchemaDef, attrs: Vector[String]): Box =
    Box(attrs.map(a => { val at = schema.attrByName(a); Interval(at.lo, at.hi) }))

  /** The clique tree of RIP-ordered sub-views: each one's separator (the
    * attributes it shares with the sub-views before it) and parent (the
    * first sub-view holding the whole separator), and every non-empty
    * intersection of separators. Fails, naming the view, if a separator
    * lies in no earlier sub-view.
    */
  private def cliqueTree(relation: String, subs: Vector[SubView])
      : (Vector[Set[String]], Vector[Int], Vector[Set[String]]) = {
    val seps = subs.indices.map(i => subs(i).attrSet.intersect(subs.take(i).flatMap(_.attrs).toSet)).toVector
    val parents = seps.map(sep => subs.indexWhere(s => sep.subsetOf(s.attrSet)))
    for (i <- 1 until subs.size if parents(i) == i)
      throw new IllegalStateException(s"view $relation: no sub-view before " +
        s"(${subs(i).attrs.mkString(", ")}) holds its separator (${seps(i).toVector.sorted.mkString(", ")})")
    val family = seps.filter(_.nonEmpty).foldLeft(Set.empty[Set[String]]) { (f, sep) =>
      f ++ f.map(_.intersect(sep)).filter(_.nonEmpty) + sep
    }
    (seps, parents, family.toVector.sortBy(_.toVector.sorted.mkString(",")))
  }

  /** `conjuncts` restricted to each set of `family` inside `within`,
    * without duplicates and without the restrictions that are always true.
    */
  private def restrictions(conjuncts: Seq[Conjunct], family: Vector[Set[String]],
                           within: Set[String]): Vector[Conjunct] =
    (for (u <- family if u.subsetOf(within); c <- conjuncts;
          r = Conjunct(c.ranges.filter(x => u(x.attr))) if r.ranges.nonEmpty) yield r).distinct

  /** Encode totals, CC constraints and clique-tree consistency over the
    * given per-sub-view partitions (Figure 7 of the paper, plus §4's
    * consistency constraints). Key classes are truth vectors of
    * `keySource`'s conjuncts restricted to the separators; `None` stands
    * for the CCs' conjuncts, as in [[regionPartitions]].
    */
  def build(
      schema: SchemaDef,
      relation: String,
      ccs: Seq[CC],
      total: Long,
      subs: Vector[SubView],
      parts: Vector[Vector[Block]],
      keySource: Option[Seq[Conjunct]] = None,
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

    // (c) Consistency on each clique-tree edge, one row per key class.
    val (seps, parents, family) = cliqueTree(relation, subs)
    val conjuncts = keySource.getOrElse(nonTrue.flatMap(_.pred.conjuncts).distinct)
    val keys = seps.map(restrictions(conjuncts, family, _))
    for (i <- subs.indices if keys(i).nonEmpty) {
      def keyed(j: Int, coeff: Rational) =
        reps(j).indices.map(r => keys(i).map(_.eval(reps(j)(r))) -> ((offsets(j) + r) -> coeff))
      val vars = keyed(parents(i), Rational.One) ++ keyed(i, Rational(-1))
      val byKey = vars.groupMap(_._1)(_._2)
      for (k <- vars.map(_._1).distinct) eqs += Simplex.Eq(byKey(k), Rational.Zero)
    }
    ViewLp(relation, total, subs, parts, keys, eqs.result())
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
      SubViewSolution(lp.subs(i), lp.keys(i), rows)
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
