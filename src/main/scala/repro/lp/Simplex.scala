package repro.lp

/** Phase-1 primal simplex for exact feasibility of `{ Ax = b, x ≥ 0 }`.
  *
  * This is the repo's stand-in for the Z3 solver used by the paper (§3.2):
  * the pipeline only ever needs *one feasible solution* of a system of
  * equality cardinality constraints. All arithmetic is in exact rationals so
  * feasible systems are never misreported.
  *
  * The tableau is sparse. Each constraint row keeps only its non-zeros, as
  * sorted column indices with their values, plus its right-hand side; an
  * entry that cancels to zero is dropped. The phase-1 objective row (the sum
  * of the artificials, over columns `0 until n + m`) is summed from the row
  * entries. A pivot divides the pivot row's non-zeros by the pivot element
  * and updates only the rows, and the objective, that have a non-zero in
  * the entering column, each with only the pivot row's non-zeros.
  *
  * Pivot rule: Dantzig pricing (the largest positive objective entry, the
  * lowest column on a tie) until `4(m+n)+200` iterations, then Bland's rule
  * (the lowest column with a positive entry), which guarantees termination.
  * The ratio test takes the minimum ratio and breaks ties on the lowest
  * basis index. Sparse storage changes no choice, so the vertex returned is
  * the one the dense tableau reaches.
  *
  * [[Simplex.feasibleIntegral]] adds branch-and-bound on top: a fractional
  * variable `x_j = f` splits the search into `x_j ≤ ⌊f⌋` and `x_j ≥ ⌈f⌉`.
  * These near-unimodular partition systems usually have an integral root
  * solution, so the search rarely branches. If it finds no integer point
  * within its node budget it fails; it never rounds.
  */
object Simplex {

  /** One equality row: sparse coefficients (varIdx → coeff) and RHS. */
  final case class Eq(coeffs: Seq[(Int, Rational)], rhs: Rational)

  /** A phase-1 result: a feasible vertex (None if the system is infeasible)
    * and the number of pivots taken to reach it.
    */
  final case class Vertex(x: Option[Array[Rational]], pivots: Long)

  /** A branch-and-bound result: a non-negative integral point (None iff the
    * LP itself is infeasible), the pivots over every node, and the nodes
    * solved, the root included.
    */
  final case class Integral(x: Option[Array[BigInt]], pivots: Long, nodes: Int)

  /** Non-zeros of one row: strictly increasing columns and their values. */
  private final class Row(val cols: Array[Int], val vals: Array[Rational]) {
    def apply(c: Int): Rational = {
      val k = java.util.Arrays.binarySearch(cols, c)
      if (k >= 0) vals(k) else Rational.Zero
    }
  }

  /** `eq` over variables `0 until nVars` as a sparse row and its RHS:
    * duplicate indices summed, zeros dropped, negated if the RHS is negative.
    */
  private def rowOf(nVars: Int, eq: Eq): (Row, Rational) = {
    val neg = eq.rhs.signum < 0
    val sum = new java.util.TreeMap[Int, Rational]()
    eq.coeffs.foreach { case (j, c) =>
      require(j >= 0 && j < nVars, s"var index $j out of range")
      sum.merge(j, if (neg) -c else c, _ + _)
    }
    sum.values.removeIf(_.isZero)
    val cols = new Array[Int](sum.size)
    val vals = new Array[Rational](sum.size)
    var k = 0
    sum.forEach { (j, c) => cols(k) = j; vals(k) = c; k += 1 }
    (new Row(cols, vals), if (neg) -eq.rhs else eq.rhs)
  }

  /** Solve `{ eqs, x ≥ 0 }`; returns a feasible point or None. */
  def feasible(nVars: Int, eqs: Seq[Eq]): Option[Array[Rational]] = vertex(nVars, eqs).x

  /** [[feasible]] with the number of pivots it took. */
  def vertex(nVars: Int, eqs: Seq[Eq]): Vertex = solve(nVars, eqs.map(rowOf(nVars, _)))

  /** Phase 1 over `n` original columns and the given rows; row `i` gets the
    * artificial column `n + i`, which starts basic.
    */
  private def solve(n: Int, system: Seq[(Row, Rational)]): Vertex = {
    val t = new Tableau(n, system)
    val blandAfter = 4L * (t.m + n) + 200
    var iter = 0L
    var enter = t.entering(bland = false)
    while (enter >= 0) {
      val leave = t.leaving(enter)
      if (leave < 0)
        throw new IllegalStateException("phase-1 objective unbounded — malformed system")
      t.pivot(leave, enter)
      iter += 1
      enter = t.entering(bland = iter >= blandAfter)
    }
    Vertex(t.solution, iter)
  }

  /** The phase-1 tableau: sparse constraint rows with their RHS, the
    * objective row (dense over columns `0 until n + m`, since it touches
    * most of them), and two indexes that keep a pivot's work proportional
    * to the non-zeros it changes: the rows holding each column, and the
    * columns whose objective entry is positive.
    */
  private final class Tableau(n: Int, system: Seq[(Row, Rational)]) {
    val m: Int = system.size
    private val rows = system.iterator.zipWithIndex.map { case ((r, _), i) =>
      new Row(r.cols :+ (n + i), r.vals :+ Rational.One)
    }.toArray
    private val rhs = system.iterator.map(_._2).toArray
    private val rowsOf = Array.fill(n + m)(new java.util.BitSet)
    for (i <- 0 until m; c <- rows(i).cols) rowsOf(c).set(i)
    // Objective row: w = Σ artificials expressed over the original columns.
    private val obj = Array.fill(n + m)(Rational.Zero)
    for ((r, _) <- system; k <- r.cols.indices) obj(r.cols(k)) = obj(r.cols(k)) + r.vals(k)
    private var objRhs = rhs.foldLeft(Rational.Zero)(_ + _)
    private val positive = new java.util.BitSet(n + m)
    for (j <- obj.indices if obj(j).signum > 0) positive.set(j)
    private val basis = Array.tabulate(m)(i => n + i)

    /** Entering column, or -1 at the optimum: Dantzig (the largest positive
      * objective entry, the lowest column on a tie), or Bland (the lowest
      * column with a positive entry).
      */
    def entering(bland: Boolean): Int =
      if (bland) positive.nextSetBit(0)
      else {
        var enter = -1
        var j = positive.nextSetBit(0)
        while (j >= 0) {
          if (enter < 0 || obj(j) > obj(enter)) enter = j
          j = positive.nextSetBit(j + 1)
        }
        enter
      }

    /** Ratio test: the row with the minimum `rhs / a` over positive entries
      * `a` of column `c`, ties to the lowest basis index; -1 if there is none.
      */
    def leaving(c: Int): Int = {
      var leave = -1
      var bestRatio: Rational = null
      var i = rowsOf(c).nextSetBit(0)
      while (i >= 0) {
        val a = rows(i)(c)
        if (a.signum > 0) {
          val ratio = rhs(i) / a
          if (leave < 0 || ratio < bestRatio ||
              (ratio == bestRatio && basis(i) < basis(leave))) {
            leave = i; bestRatio = ratio
          }
        }
        i = rowsOf(c).nextSetBit(i + 1)
      }
      leave
    }

    def pivot(r: Int, c: Int): Unit = {
      val p = rows(r)(c)
      val pr = new Row(rows(r).cols, rows(r).vals.map(_ / p))
      val pRhs = rhs(r) / p
      rows(r) = pr
      rhs(r) = pRhs
      val others = rowsOf(c).stream.filter(_ != r).toArray
      for (i <- others) {
        val f = rows(i)(c)
        rows(i) = eliminate(i, f, pr)
        rhs(i) = rhs(i) - f * pRhs
      }
      val f = obj(c)
      for (k <- pr.cols.indices) {
        val j = pr.cols(k)
        obj(j) = obj(j) - f * pr.vals(k)
        positive.set(j, obj(j).signum > 0)
      }
      objRhs = objRhs - f * pRhs
      basis(r) = c
    }

    /** Row `i` minus `f` times the pivot row `p`, dropping the entries that
      * cancel and recording fill-in and cancellations in [[rowsOf]].
      */
    private def eliminate(i: Int, f: Rational, p: Row): Row = {
      val row = rows(i)
      val cs = new Array[Int](row.cols.length + p.cols.length)
      val vs = new Array[Rational](cs.length)
      var a = 0; var b = 0; var k = 0
      while (a < row.cols.length || b < p.cols.length) {
        val ca = if (a < row.cols.length) row.cols(a) else Int.MaxValue
        val cb = if (b < p.cols.length) p.cols(b) else Int.MaxValue
        if (ca < cb) {
          cs(k) = ca; vs(k) = row.vals(a); k += 1; a += 1
        } else {
          val v = if (ca == cb) { a += 1; row.vals(a - 1) - f * p.vals(b) } else -(f * p.vals(b))
          if (v.isZero) rowsOf(cb).clear(i)
          else { cs(k) = cb; vs(k) = v; k += 1; rowsOf(cb).set(i) }
          b += 1
        }
      }
      new Row(java.util.Arrays.copyOf(cs, k), java.util.Arrays.copyOf(vs, k))
    }

    /** The basic solution over the original columns, if phase 1 reached 0. */
    def solution: Option[Array[Rational]] =
      if (!objRhs.isZero) None
      else {
        val x = Array.fill(n)(Rational.Zero)
        for (i <- 0 until m if basis(i) < n) x(basis(i)) = rhs(i)
        Some(x)
      }
  }

  /** Find a non-negative *integer* solution of `{ eqs, x ≥ 0 }` with
    * branch-and-bound: branch a fractional basic `x_j = f` into
    * `x_j ≤ ⌊f⌋` and `x_j ≥ ⌈f⌉`, each encoded as an equality with a fresh
    * slack/surplus variable. Every node is solved from scratch over `eqs`'
    * rows, converted once, and its branch rows. The root LP is node 1.
    * The point is None iff the LP itself is infeasible; throws an
    * `IllegalStateException` naming the nodes searched if no integer point
    * is found within `maxNodes`.
    */
  def feasibleIntegral(nVars: Int, eqs: Seq[Eq], maxNodes: Int = 1000): Integral = {
    val base = eqs.map(rowOf(nVars, _))
    var nodes = 1
    var pivots = 0L

    // Branch constraints are (varIdx, bound, isUpper); each contributes one
    // equality row with its own fresh slack variable at solve time.
    def solveWith(branches: List[(Int, BigInt, Boolean)]): Option[Array[Rational]] = {
      val total = nVars + branches.size
      val extra = branches.zipWithIndex.map { case ((j, b, upper), k) =>
        val slackSign = if (upper) Rational.One else Rational(-1) // x_j ± s = b
        rowOf(total, Eq(Seq(j -> Rational.One, (nVars + k) -> slackSign), Rational(b)))
      }
      val v = solve(total, base ++ extra)
      pivots += v.pivots
      v.x.map(_.take(nVars))
    }

    def branch(sol: Array[Rational], branches: List[(Int, BigInt, Boolean)]): Option[Array[Rational]] =
      sol.indexWhere(v => !v.isWhole) match {
        case -1 => Some(sol)
        case j =>
          val f = sol(j)
          search((j, f.floor, true) :: branches)
            .orElse(search((j, f.ceil, false) :: branches))
      }

    def search(branches: List[(Int, BigInt, Boolean)]): Option[Array[Rational]] =
      if (nodes >= maxNodes) None
      else {
        nodes += 1
        solveWith(branches).flatMap(branch(_, branches))
      }

    val x = solveWith(Nil).map { root =>
      branch(root, Nil).getOrElse {
        val why = if (nodes >= maxNodes) "node budget exhausted" else "no integer point exists"
        throw new IllegalStateException(
          s"no integral solution: $why after $nodes branch-and-bound nodes (budget $maxNodes)")
      }.map(_.num)
    }
    Integral(x, pivots, nodes)
  }
}
