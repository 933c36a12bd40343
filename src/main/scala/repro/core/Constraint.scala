package repro.core

import org.apache.spark.sql.DataFrame

/** Cardinality constraints (CCs, §2.2) and their extraction from Annotated
  * Query Plans executed on the client database.
  *
  * After the DataSynth-style preprocessing rewrite (§3.2), every CC is
  * expressed against a *relation's view*: `|σ_pred (view(relation))| = card`,
  * where `pred` is a DNF over non-key attributes appearing in `relation`'s
  * transitive FK closure. A `True` predicate encodes the relation-size CC.
  */
final case class CC(relation: String, pred: Dnf, card: Long) {
  def dedupKey: (String, String) =
    (relation, pred.conjuncts.map(_.toSql).sorted.mkString("|"))
}

object CC {

  /** Size of `relation` given its CCs `relCcs`: the relation-size (`True`)
    * CC, else `fallbackTotals` (relations no query counts, e.g.
    * never-queried dimensions), else an error naming the relation.
    */
  def relationSize(relation: String, relCcs: Seq[CC], fallbackTotals: Map[String, Long]): Long =
    relCcs
      .find(_.pred.isTrue)
      .map(_.card)
      .orElse(fallbackTotals.get(relation))
      .getOrElse(throw new IllegalArgumentException(
        s"no size known for relation $relation — add a base CC or a fallback total"))
}

/** A workload query: PK-FK left-deep join of `root` with `joined` (in join
  * order; each joined relation must be referenced by an earlier one), with
  * per-relation DNF filters on non-key attributes. This is the query class
  * the paper supports (§2.2, §7).
  */
final case class Query(root: String, joined: Seq[String], filters: Map[String, Dnf]) {
  def relations: Seq[String] = root +: joined
}

/** Extracts CCs from workload queries by *executing* the canonical plan on
  * the client DataFrames and annotating each operator's output cardinality —
  * our Spark stand-in for fetching AQPs from the PostgreSQL engine (§3.1).
  */
object Aqp {

  /** Validate that `q`'s join order is realizable with PK-FK joins. */
  def validate(schema: SchemaDef, q: Query): Unit = {
    val present = scala.collection.mutable.Set(q.root)
    q.joined.foreach { d =>
      require(
        present.exists(p => schema.byName(p).fks.exists(_.target == d)),
        s"join order invalid: $d not referenced by any of $present")
      present += d
    }
    q.filters.foreach { case (rel, dnf) =>
      require(q.relations.contains(rel), s"filter on un-joined relation $rel")
      val own = schema.byName(rel).attrNames.toSet
      require(dnf.attrs.subsetOf(own), s"filter on $rel uses non-own attrs ${dnf.attrs -- own}")
    }
  }

  /** CCs for one query: base sizes, per-relation filter cardinalities, and
    * the output cardinality of every join prefix (all counted with Spark).
    * Join-prefix CCs are rewritten onto the root relation's view, with the
    * predicate being the conjunction of all filters applied so far (§3.2).
    */
  def extractQueryCCs(
      schema: SchemaDef,
      q: Query,
      dfs: Map[String, DataFrame],
      countCache: scala.collection.mutable.Map[(String, String), Long],
  ): Seq[CC] = {
    validate(schema, q)
    def countOf(rel: String, pred: Dnf)(body: => Long): Long =
      countCache.getOrElseUpdate(CC(rel, pred, 0).dedupKey, body)

    val base = q.relations.map(r => CC(r, Dnf.True, countOf(r, Dnf.True)(dfs(r).count())))

    val filterCCs = q.filters.toSeq.collect {
      case (rel, dnf) if !dnf.isTrue =>
        CC(rel, dnf, countOf(rel, dnf)(dfs(rel).filter(dnf.toColumn).count()))
    }

    // Left-deep join prefixes, each annotated with its output cardinality.
    def filtered(rel: String): DataFrame = q.filters.get(rel) match {
      case Some(p) if !p.isTrue => dfs(rel).filter(p.toColumn)
      case _                    => dfs(rel)
    }
    var cur = filtered(q.root)
    var pred = q.filters.getOrElse(q.root, Dnf.True)
    val joinCCs = q.joined.map { d =>
      val fk = q.relations
        .flatMap(r => schema.byName(r).fks.filter(_.target == d))
        .head // validated above: some earlier relation references d
      val pk = schema.byName(d).pkCol
      val fd = filtered(d)
      cur = cur.join(fd, cur(fk.column) === fd(pk))
      pred = pred.and(q.filters.getOrElse(d, Dnf.True))
      val p = pred
      CC(q.root, p, countOf(q.root, p)(cur.count()))
    }
    base ++ filterCCs ++ joinCCs
  }

  /** Extract and de-duplicate the CCs of a whole workload. */
  def extractWorkloadCCs(
      schema: SchemaDef,
      queries: Seq[Query],
      dfs: Map[String, DataFrame],
  ): Seq[CC] = {
    val cache = scala.collection.mutable.Map[(String, String), Long]()
    val all = queries.flatMap(q => extractQueryCCs(schema, q, dfs, cache))
    val seen = scala.collection.mutable.LinkedHashMap[(String, String), CC]()
    all.foreach(cc => seen.getOrElseUpdate(cc.dedupKey, cc))
    seen.values.toSeq
  }
}
