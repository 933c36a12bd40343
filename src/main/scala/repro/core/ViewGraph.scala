package repro.core

/** View-graph construction and decomposition into sub-views (§3.2).
  *
  * Nodes are the view attributes that appear in at least one CC predicate;
  * each CC's attribute set induces a clique (those attributes "appear
  * together"). The graph is then chordalized (min-fill elimination) and the
  * sub-views are its maximal cliques, ordered by a clique-tree traversal so
  * that the running-intersection property holds — exactly the separator
  * condition required by the paper's greedy sub-view ordering (§5.1.1).
  */
object ViewGraph {

  /** A sub-view: an ordered list of attribute names (a maximal clique). */
  final case class SubView(attrs: Vector[String]) {
    def attrSet: Set[String] = attrs.toSet
  }

  /** Decompose a view with constraints `ccs` into RIP-ordered sub-views.
    * Attributes not referenced by any CC are omitted (they are
    * unconstrained and get constant values at instantiation time).
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

    // Maximal cliques of a chordal graph: {v} ∪ later-eliminated neighbors.
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
    order.map(c => SubView(c.toVector.sorted.map(nodes))).toVector
  }
}
