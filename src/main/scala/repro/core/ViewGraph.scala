package repro.core

/** View-graph construction and decomposition into sub-views (§3.2).
  *
  * Nodes are the view attributes that appear in at least one CC predicate;
  * each CC's attribute set induces a clique (those attributes "appear
  * together"). The graph is then chordalized (min-fill elimination) and the
  * sub-views are its maximal cliques, ordered by a clique-tree traversal so
  * that the running-intersection property holds — exactly the separator
  * condition required by the paper's greedy sub-view ordering (§5.1.1).
  * The sub-views carry that tree: §4's consistency constraints and §5.1's
  * align & merge both work one tree edge at a time.
  */
object ViewGraph {

  /** A sub-view: an ordered list of attribute names (a maximal clique) and
    * its clique-tree edge. `sep` is the attributes it shares with the
    * sub-views before it; `parent` is the first earlier sub-view holding
    * all of `sep` (-1 for the first sub-view). `key` is the CC conjuncts
    * restricted to the separator-family sets inside `sep` ([[restrictions]]):
    * a key class is their truth vector at a point ([[keyClass]]).
    */
  final case class SubView(attrs: Vector[String], sep: Set[String], parent: Int, key: Vector[Conjunct]) {
    def attrSet: Set[String] = attrs.toSet

    /** The key class of `point`, whose coordinates are the values of
      * `attrs` (which must hold `sep`): the truth vector of `key` there.
      */
    def keyClass(attrs: Vector[String], point: Vector[Double]): Vector[Boolean] =
      key.map(_.ranges.forall(r => r.iv.contains(point(attrs.indexOf(r.attr)))))
  }

  /** Decompose a view with constraints `ccs` into RIP-ordered sub-views,
    * keyed by the CCs' conjuncts. Attributes not referenced by any CC are
    * omitted (they are unconstrained and get constant values at
    * instantiation time).
    */
  def subViews(ccs: Seq[CC]): Vector[SubView] = {
    val cliquesIn = ccs.map(_.pred.attrs).filter(_.nonEmpty)
    val nodes = cliquesIn.flatten.distinct.sorted.toVector
    if (nodes.isEmpty) return Vector.empty
    val idx = nodes.zipWithIndex.toMap
    val n = nodes.size

    // Adjacency from CC co-occurrence cliques.
    val adj = Array.fill(n)(scala.collection.mutable.Set[Int]())
    for (cl <- cliquesIn; s = cl.toSeq.map(idx); i <- s; j <- s if i != j) adj(i) += j

    // Min-fill elimination ordering; fill edges make the graph chordal.
    val filled = adj.map(s => scala.collection.mutable.Set[Int]() ++= s)
    val remaining = scala.collection.mutable.Set[Int]() ++= (0 until n)
    val live = adj.map(s => scala.collection.mutable.Set[Int]() ++= s)
    val elimOrder = scala.collection.mutable.ArrayBuffer[Int]()
    val elimPos = Array.fill(n)(-1)
    while (remaining.nonEmpty) {
      def fillCount(v: Int): Int = {
        val nb = live(v).toSeq
        var c = 0
        for (i <- nb.indices; j <- (i + 1) until nb.size)
          if (!live(nb(i)).contains(nb(j))) c += 1
        c
      }
      val v = remaining.minBy(v => (fillCount(v), v))
      val nb = live(v).toSeq
      for (i <- nb.indices; j <- (i + 1) until nb.size) {
        val (a, b) = (nb(i), nb(j))
        if (!live(a).contains(b)) {
          live(a) += b; live(b) += a
          filled(a) += b; filled(b) += a
        }
      }
      nb.foreach(u => live(u) -= v)
      remaining -= v
      elimPos(v) = elimOrder.size
      elimOrder += v
    }

    // Maximal cliques of a chordal graph: {v} ∪ its neighbors later in the elimination order.
    val candidate = elimOrder.map { v =>
      (filled(v).filter(u => elimPos(u) > elimPos(v)).toSet + v)
    }.toVector
    val maximal = candidate.zipWithIndex
      .filterNot { case (c, i) =>
        candidate.zipWithIndex.exists { case (d, j) => j != i && c.subsetOf(d) && (c != d || j < i) }
      }
      .map(_._1)

    // Clique-tree attachment order (Prim on |intersection|) ⇒ RIP order.
    val order = scala.collection.mutable.ArrayBuffer[Set[Int]]()
    val left = scala.collection.mutable.ArrayBuffer[Set[Int]]() ++= maximal
    order += left.remove(0)
    while (left.nonEmpty) {
      // Genuine Prim: weight = best |intersection| with a SINGLE in-tree
      // clique, so the result is a clique tree and the order has the RIP.
      val next = left.zipWithIndex.maxBy { case (c, i) =>
        (order.map(d => c.intersect(d).size).max, -i)
      }
      order += next._1
      left.remove(next._2)
    }
    // A maximum-weight spanning tree of the clique graph is a clique tree,
    // so every separator lies in one earlier sub-view.
    val attrs = order.map(_.toVector.sorted.map(nodes)).toVector
    val tree = attrs.indices.map { i =>
      val sep = attrs(i).toSet.intersect(attrs.take(i).flatten.toSet)
      val parent = attrs.take(i).indexWhere(a => sep.subsetOf(a.toSet))
      if (i > 0 && parent < 0)
        throw new IllegalStateException(s"view ${ccs.head.relation}: no sub-view before " +
          s"(${attrs(i).mkString(", ")}) holds its separator (${sep.toVector.sorted.mkString(", ")})")
      SubView(attrs(i), sep, parent, Vector.empty)
    }.toVector
    keyed(tree, ccs.flatMap(_.pred.conjuncts).distinct)
  }

  /** Every non-empty separator of `subs` and every non-empty intersection
    * of separators, in a fixed order.
    */
  def separatorFamily(subs: Vector[SubView]): Vector[Set[String]] =
    subs.map(_.sep).filter(_.nonEmpty).foldLeft(Set.empty[Set[String]]) { (f, sep) =>
      f ++ f.map(_.intersect(sep)).filter(_.nonEmpty) + sep
    }.toVector.sortBy(_.toVector.sorted.mkString(","))

  /** `conjuncts` restricted to each set of `family` inside `within`,
    * without duplicates and without the restrictions that are always true.
    */
  def restrictions(conjuncts: Seq[Conjunct], family: Vector[Set[String]], within: Set[String]): Vector[Conjunct] =
    (for (u <- family if u.subsetOf(within); c <- conjuncts;
          r = Conjunct(c.ranges.filter(x => u(x.attr))) if r.ranges.nonEmpty) yield r).distinct

  /** `subs` with each key made of `conjuncts` instead (DataSynth keys by
    * its grid intervals, so its consistency holds cell by cell).
    */
  def keyed(subs: Vector[SubView], conjuncts: Seq[Conjunct]): Vector[SubView] = {
    val family = separatorFamily(subs)
    subs.map(s => s.copy(key = restrictions(conjuncts, family, s.sep)))
  }
}
