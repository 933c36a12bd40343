package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.SQLExecution
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.DoubleType

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

  /** This CC on a database `k` times larger. */
  def scaled(k: Long): CC = copy(card = CC.scaledCount(relation, card, k))
}

object CC {

  /** `n * k` for a count `n` of `relation`; a product that overflows a Long
    * fails, naming the relation.
    */
  def scaledCount(relation: String, n: Long, k: Long): Long =
    try Math.multiplyExact(n, k) catch {
      case e: ArithmeticException =>
        throw new ArithmeticException(s"relation $relation: $n × $k tuples overflow a Long (${e.getMessage})")
    }

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

  /** Every relation of `schema`, in its order, with its CCs among `ccs` and
    * its size ([[relationSize]]): the per-view loop of Hydra and DataSynth.
    */
  def byView(schema: SchemaDef, ccs: Seq[CC], fallbackTotals: Map[String, Long]): Seq[(String, Seq[CC], Long)] = {
    val byRel = ccs.groupBy(_.relation)
    schema.relations.map { r =>
      val relCcs = byRel.getOrElse(r.name, Nil)
      (r.name, relCcs, relationSize(r.name, relCcs, fallbackTotals))
    }
  }
}

/** How a regenerated database meets one CC (§7.1): `achieved` is the CC's
  * count on it, `riExtras` the tuples referential-integrity repair added to
  * the CC's relation. The contract is that the count lies in
  * [card, card + riExtras]: exact, up to positive-only RI extras.
  */
final case class CcFidelity(cc: CC, achieved: Long, riExtras: Long) {
  require(cc.card >= 0 && achieved >= 0 && riExtras >= 0,
    s"CC on ${cc.relation}: negative count in target ${cc.card}, achieved $achieved or RI extras $riExtras")

  /** `achieved - card`; both are non-negative, so it cannot wrap. */
  def gap: Long = achieved - cc.card

  def met: Boolean = gap >= 0 && gap <= riExtras

  /** Signed relative error; on a zero target, 0 if the count is 0, else 1. */
  def relErr: Double =
    if (cc.card == 0) { if (achieved == 0) 0.0 else 1.0 }
    else gap.toDouble / cc.card

  /** Why the CC is not met, naming its relation and predicate; None if met. */
  def failure: Option[String] = Option.when(!met)(
    s"CC on ${cc.relation} (${cc.pred.toSql}): target ${cc.card}, got $achieved, RI extras $riExtras")
}

object CcFidelity {

  /** The fidelity of each of `ccs`, in order, given its `count` on the
    * regenerated database and the RI repair's `extraTuples` per relation.
    */
  def report(ccs: Seq[CC], extraTuples: Map[String, Long])(count: CC => Long): Vector[CcFidelity] =
    ccs.iterator.map(cc => CcFidelity(cc, count(cc), extraTuples.getOrElse(cc.relation, 0L))).toVector
}

/** A workload query: PK-FK left-deep join of `root` with `joined` (in join
  * order; each joined relation must be referenced by an earlier one), with
  * per-relation DNF filters on non-key attributes. This is the query class
  * the paper supports (§2.2, §7).
  */
final case class Query(root: String, joined: Seq[String], filters: Map[String, Dnf]) {
  def relations: Seq[String] = root +: joined
}

/** Extracts CCs from workload queries by *executing* them on the client
  * DataFrames and annotating each operator's output cardinality — our Spark
  * stand-in for fetching AQPs from the PostgreSQL engine (§3.1).
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

  /** The CCs of a workload, de-duplicated, with their counts on `dfs`.
    *
    * Each query annotates, in order: the size of every relation it joins,
    * every non-true filter on its relation, and the output of every join
    * prefix of its left-deep PK-FK plan. A join-prefix CC is rewritten onto
    * the root relation's view, with the conjunction of all filters applied
    * so far as its predicate (§3.2). The first of repeated CCs wins.
    *
    * All CCs of one relation are counted in one pass over its view (see
    * [[viewFrame]]): under PK-FK integrity every tuple of a relation joins
    * exactly one tuple of each relation it references, so a filtered count
    * over the view equals the left-deep join's output cardinality. The view
    * is projected to the CCs' attributes as doubles, and each task counts
    * its rows with a [[DnfCounter]] compiled once on the driver: exactly
    * `COUNT(CASE WHEN pred THEN 1 END)` per CC (a null fails every finite
    * bound; NaN is above every double), without generated code per CC or a
    * final aggregate. The driver sums the per-partition counts. Each
    * relation's count is one named SQL execution, so one Spark action; the
    * relations' counts run concurrently ([[SparkJobs.perRelation]]);
    * planning and validation stay on the calling thread.
    */
  def extractWorkloadCCs(
      schema: SchemaDef,
      queries: Seq[Query],
      dfs: Map[String, DataFrame],
  ): Seq[CC] = {
    val planned = scala.collection.mutable.LinkedHashMap[(String, String), CC]()
    queries.foreach { q =>
      validate(schema, q)
      val filter = (r: String) => q.filters.getOrElse(r, Dnf.True)
      val base = q.relations.map(CC(_, Dnf.True, 0))
      val filterCCs = q.filters.toSeq.collect { case (rel, dnf) if !dnf.isTrue => CC(rel, dnf, 0) }
      val joinCCs = q.joined.scanLeft(filter(q.root))((p, d) => p.and(filter(d))).tail
        .map(CC(q.root, _, 0))
      (base ++ filterCCs ++ joinCCs).foreach(cc => planned.getOrElseUpdate(cc.dedupKey, cc))
    }
    val ccs = planned.values.toSeq
    val relations = ccs.map(_.relation).distinct
    relations.foreach(checkSingleCopies(schema, _))
    if (relations.isEmpty) return Nil
    val byRel = ccs.groupBy(_.relation)
    val counted = SparkJobs.perRelation(dfs(relations.head).sparkSession.sparkContext, relations) { rel =>
      val relCcs = byRel(rel)
      val counter = DnfCounter.of(relCcs.map(_.pred))
      val qe = viewFrame(schema, dfs, rel, counter.attrs.toSet, dfs(rel))
        .select(counter.attrs.map(a => col(a).cast(DoubleType)): _*)
        .queryExecution
      // A relation with no tuples may have no partitions, hence no reduce.
      val perPartition = SQLExecution.withNewExecutionId(qe, Some("count")) {
        qe.toRdd.mapPartitions(rows => Iterator(counter.count(rows))).collect()
      }
      relCcs.zipWithIndex.map { case (cc, i) => cc.dedupKey -> perPartition.map(_(i)).sum }
    }.flatten.toMap
    ccs.map(cc => cc.copy(card = counted(cc.dedupKey)))
  }

  /** `rel`'s view (§3.2), as far as predicates over `attrs` need it: `base`
    * (`rel`'s tuples) left-joined, recursively, along each FK whose target's
    * closure holds one of `attrs`. Every tuple of `rel` stays one row; a
    * dangling FK gives nulls, which satisfy no range, so such a row counts
    * only for predicates that do not look at the missing relation.
    *
    * A target whose join would be shuffled is first cut down to the tuples
    * `base`'s FK points at, by a semi-join (Bernstein & Chiu, JACM 1981),
    * when that semi-join is itself a broadcast: see [[semiJoinReduced]].
    * The tuples it drops join no tuple of `base`, so every count is the same.
    */
  private def viewFrame(schema: SchemaDef, dfs: Map[String, DataFrame], rel: String,
                        attrs: Set[String], base: DataFrame): DataFrame =
    schema.byName(rel).fks
      .filter(fk => schema.viewAttrs(fk.target).exists(attrs))
      .foldLeft(base) { (acc, fk) =>
        val pk = schema.byName(fk.target).pkCol
        val reduced = semiJoinReduced(dfs(fk.target), pk, base, fk.column)
        val target = viewFrame(schema, dfs, fk.target, attrs, reduced)
        acc.join(target, acc(fk.column) === target(pk), "left")
      }

  /** `target`'s tuples whose `pk` is among `referrer`'s `fk` values, if
    * `target` is larger than the frames' `spark.sql.autoBroadcastJoinThreshold`
    * (its join with a view would be shuffled) and the `fk` column fits under
    * it (the semi-join is a broadcast, so it adds no shuffle); else `target`.
    * Sizes are the optimized plans' estimates. The keys keep their
    * duplicates: the broadcast hash build absorbs them.
    */
  private def semiJoinReduced(target: DataFrame, pk: String, referrer: DataFrame, fk: String): DataFrame = {
    val threshold = target.sparkSession.sessionState.conf.autoBroadcastJoinThreshold
    def size(df: DataFrame) = df.queryExecution.optimizedPlan.stats.sizeInBytes
    lazy val keys = referrer.select(fk)
    if (threshold > 0 && size(target) > threshold && size(keys) <= threshold)
      target.join(keys, target(pk) === keys(fk), "left_semi")
    else target
  }

  /** A view holds one copy of each relation in its FK closure
    * ([[SchemaDef.viewAttrs]]); fail if `rel`'s closure reaches one twice.
    */
  private def checkSingleCopies(schema: SchemaDef, rel: String): Unit = {
    val pathTo = scala.collection.mutable.Map[String, String]()
    def visit(r: String, path: String): Unit = {
      pathTo.get(r).foreach { first =>
        throw new IllegalArgumentException(
          s"FK closure of $rel reaches $r twice, via $first and via $path")
      }
      pathTo(r) = path
      schema.byName(r).fks.foreach(fk => visit(fk.target, s"$path.${fk.column} → ${fk.target}"))
    }
    visit(rel, rel)
  }
}
