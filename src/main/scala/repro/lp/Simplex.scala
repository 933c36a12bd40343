package repro.lp

/** Phase-1 primal simplex for exact feasibility of `{ Ax = b, x ≥ 0 }`.
  *
  * This is the repo's stand-in for the Z3 solver used by the paper (§3.2):
  * the pipeline only ever needs *one feasible solution* of a system of
  * equality cardinality constraints. Dantzig pricing with an automatic
  * fall-back to Bland's rule guarantees termination; all arithmetic is in
  * exact rationals so feasible systems are never misreported.
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

  /** Solve `{ eqs, x ≥ 0 }`; returns a feasible point or None. */
  def feasible(nVars: Int, eqs: Seq[Eq]): Option[Array[Rational]] = {
    val m = eqs.size
    val n = nVars
    val width = n + m + 1 // original vars, artificials, rhs
    val T = Array.fill(m + 1)(Array.fill(width)(Rational.Zero))
    for ((eq, i) <- eqs.zipWithIndex) {
      val neg = eq.rhs.signum < 0
      eq.coeffs.foreach { case (j, c) =>
        require(j >= 0 && j < n, s"var index $j out of range")
        T(i)(j) = T(i)(j) + (if (neg) -c else c)
      }
      T(i)(n + i) = Rational.One
      T(i)(width - 1) = if (neg) -eq.rhs else eq.rhs
    }
    // Objective row: w = Σ artificials expressed over original columns.
    for (j <- 0 until n) {
      var s = Rational.Zero
      var i = 0
      while (i < m) { s = s + T(i)(j); i += 1 }
      T(m)(j) = s
    }
    T(m)(width - 1) = (0 until m).foldLeft(Rational.Zero)((s, i) => s + T(i)(width - 1))

    val basis = Array.tabulate(m)(i => n + i)
    val blandAfter = 4L * (m + n) + 200
    var iter = 0L
    var done = false
    while (!done) {
      val obj = T(m)
      // Entering column: Dantzig first, Bland once past the iteration guard.
      var enter = -1
      if (iter < blandAfter) {
        var best = Rational.Zero
        var j = 0
        while (j < n + m) {
          if (obj(j) > best) { best = obj(j); enter = j }
          j += 1
        }
      } else {
        var j = 0
        while (enter < 0 && j < n + m) { if (obj(j).signum > 0) enter = j; j += 1 }
      }
      if (enter < 0) done = true
      else {
        // Ratio test (Bland tie-break on basis index for termination).
        var leave = -1
        var bestRatio: Rational = null
        var i = 0
        while (i < m) {
          val a = T(i)(enter)
          if (a.signum > 0) {
            val ratio = T(i)(width - 1) / a
            if (leave < 0 || ratio < bestRatio ||
                (ratio == bestRatio && basis(i) < basis(leave))) {
              leave = i; bestRatio = ratio
            }
          }
          i += 1
        }
        if (leave < 0)
          throw new IllegalStateException("phase-1 objective unbounded — malformed system")
        pivot(T, basis, leave, enter, width)
        iter += 1
      }
    }
    if (!T(m)(width - 1).isZero) None
    else {
      val x = Array.fill(n)(Rational.Zero)
      for (i <- 0 until m if basis(i) < n) x(basis(i)) = T(i)(width - 1)
      Some(x)
    }
  }

  private def pivot(T: Array[Array[Rational]], basis: Array[Int],
                    r: Int, c: Int, width: Int): Unit = {
    val p = T(r)(c)
    val row = T(r)
    var j = 0
    while (j < width) { if (!row(j).isZero) row(j) = row(j) / p; j += 1 }
    var i = 0
    while (i < T.length) {
      if (i != r) {
        val f = T(i)(c)
        if (!f.isZero) {
          val ti = T(i)
          var k = 0
          while (k < width) {
            if (!row(k).isZero) ti(k) = ti(k) - f * row(k)
            k += 1
          }
        }
      }
      i += 1
    }
    basis(r) = c
  }

  /** Find a non-negative *integer* solution of `{ eqs, x ≥ 0 }` with
    * branch-and-bound: branch a fractional basic `x_j = f` into
    * `x_j ≤ ⌊f⌋` and `x_j ≥ ⌈f⌉`, each encoded as an equality with a fresh
    * slack/surplus variable. The root LP is node 1. Returns None iff the LP
    * itself is infeasible; throws an `IllegalStateException` naming the
    * nodes searched if no integer point is found within `maxNodes`.
    */
  def feasibleIntegral(nVars: Int, eqs: Seq[Eq], maxNodes: Int = 1000): Option[Array[BigInt]] = {
    var nodes = 1

    // Branch constraints are (varIdx, bound, isUpper); each contributes one
    // equality row with its own fresh slack variable at solve time.
    def solveWith(branches: List[(Int, BigInt, Boolean)]): Option[Array[Rational]] = {
      val total = nVars + branches.size
      val extra = branches.zipWithIndex.map { case ((j, b, upper), k) =>
        val slackSign = if (upper) Rational.One else Rational(-1) // x_j ± s = b
        Eq(Seq(j -> Rational.One, (nVars + k) -> slackSign), Rational(b))
      }
      feasible(total, eqs ++ extra).map(_.take(nVars))
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

    solveWith(Nil).map { root =>
      branch(root, Nil).getOrElse {
        val why = if (nodes >= maxNodes) "node budget exhausted" else "no integer point exists"
        throw new IllegalStateException(
          s"no integral solution: $why after $nodes branch-and-bound nodes (budget $maxNodes)")
      }.map(_.num)
    }
  }
}
