package repro.datasynth

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.core._
import repro.hydra.{Block, LPFormulator}
import scala.collection.mutable

/** Reimplementation of the DataSynth baseline (Arasu et al., SIGMOD'11) as
  * described in the paper (§3.2, §5, §8): grid-partitioned LP, then
  * per-tuple *probabilistic sampling* — Prob(first sub-view) followed by
  * conditional sampling of each later sub-view given the shared attributes —
  * then referential-integrity repair over the fully *instantiated* views.
  *
  * The contrasts Hydra's evaluation measures all live here: grid LPs are
  * orders of magnitude larger (often unsolvably so), sampling introduces
  * two-sided volumetric errors, and every post-LP step is data-scale
  * dependent.
  */
object DataSynth {

  /** Grid LP of one view. `masses` is None when the grid exceeded
    * `solveCap` variables — the analogue of the paper's solver crash.
    */
  final case class ViewGrid(
      relation: String,
      total: Long,
      subs: Vector[ViewGraph.SubView],
      gridVars: BigInt,
      masses: Option[Vector[Vector[(Block, Double)]]],
      lpMillis: Long,
  ) {
    def solvable: Boolean = masses.isDefined
  }

  /** Formulate + solve the grid LP of one view (fractional solution — the
    * sampler treats masses as probabilities).
    */
  def solveView(schema: SchemaDef, relation: String, ccs: Seq[CC], total: Long,
                solveCap: Int = 20000): ViewGrid = {
    val t0 = System.nanoTime()
    val nonTrue = ccs.filterNot(_.pred.isTrue)
    val subs = ViewGraph.subViews(nonTrue)
    val gridVars = subs.map(GridPartition.cellCount(schema, nonTrue, _)).sum
    if (subs.isEmpty)
      return ViewGrid(relation, total, subs, gridVars, Some(Vector.empty),
        (System.nanoTime() - t0) / 1000000)
    if (gridVars > solveCap)
      return ViewGrid(relation, total, subs, gridVars, None,
        (System.nanoTime() - t0) / 1000000)
    val parts = subs.map(GridPartition.cells(schema, nonTrue, _))
    val lp = LPFormulator.build(schema, relation, ccs, total, subs, parts)
    val masses = LPFormulator.solveFractional(lp).map(
      _.map(_.map { case (b, r) => (b, r.toDouble) }))
    ViewGrid(relation, total, subs, gridVars,
      masses.orElse(throw new IllegalStateException(s"infeasible grid LP for $relation")),
      (System.nanoTime() - t0) / 1000000)
  }

  /** Grid LPs of every relation of `schema`, sized by [[CC.relationSize]] —
    * the DataSynth twin of `Hydra.buildSummary`'s per-relation loop.
    */
  def solveViews(schema: SchemaDef, ccs: Seq[CC],
                 fallbackTotals: Map[String, Long] = Map.empty): Seq[ViewGrid] = {
    val byRel = ccs.groupBy(_.relation)
    schema.relations.map { r =>
      val relCcs = byRel.getOrElse(r.name, Nil)
      solveView(schema, r.name, relCcs, CC.relationSize(r.name, relCcs, fallbackTotals))
    }
  }

  /** Instantiated database: per-view tuple arrays (over the view's full
    * attribute list), per-relation FK columns, and RI-repair extra counts.
    */
  final case class Result(
      viewAttrs: Map[String, Vector[String]],
      viewTuples: Map[String, mutable.ArrayBuffer[Array[Double]]],
      fkVals: Map[String, Vector[Array[Long]]],
      extraTuples: Map[String, Long],
  )

  /** Sample full view instantiations from the grid-LP masses, then repair
    * referential integrity at cell granularity and assign FK values.
    */
  def instantiate(schema: SchemaDef, grids: Seq[ViewGrid], ccs: Seq[CC], seed: Long): Result = {
    require(grids.forall(_.solvable), "cannot instantiate: a grid LP was unsolvable")
    val rnd = new java.util.Random(seed)

    // Global per-attribute boundary registry for cell-granularity matching.
    val gridRels = grids.map(_.relation).toSet
    val gridCcs = ccs.filter(c => gridRels(c.relation) && !c.pred.isTrue)
    val attrBounds: Map[String, Vector[Double]] = schema.attrByName.map { case (a, _) =>
      a -> GridPartition.boundaries(schema, gridCcs.filter(_.pred.attrs.contains(a)), a)
    }
    def cellIdx(a: String, v: Double): Int = {
      val bs = attrBounds(a)
      var lo = 0; var hi = bs.size - 2
      while (lo < hi) {
        val mid = (lo + hi + 1) >>> 1
        if (bs(mid) <= v) lo = mid else hi = mid - 1
      }
      lo
    }

    val viewAttrs = grids.map(g => g.relation -> schema.viewAttrs(g.relation).toVector).toMap
    val viewTuples = mutable.Map[String, mutable.ArrayBuffer[Array[Double]]]()

    for (g <- grids) {
      val attrs = viewAttrs(g.relation)
      require(g.total <= Int.MaxValue / 2, s"DataSynth instantiation too large: ${g.total}")
      val n = g.total.toInt
      val tuples = mutable.ArrayBuffer.fill(n)(
        attrs.map(a => schema.attrByName(a).lo).toArray)
      val attrPos = attrs.zipWithIndex.toMap
      var assigned = Set.empty[String]
      for ((sub, masses) <- g.subs.zip(g.masses.get)) {
        val shared = sub.attrs.filter(assigned.contains)
        val newAttrs = sub.attrs.filterNot(assigned.contains)
        def fill(t: Array[Double], b: Block, dims: Seq[String]): Unit =
          dims.foreach { a =>
            val iv = b.boxes.head.ivs(sub.attrs.indexOf(a))
            val hi = if (iv.hi.isPosInfinity) iv.lo + 1 else iv.hi
            t(attrPos(a)) = iv.lo + rnd.nextDouble() * (hi - iv.lo)
          }
        if (shared.isEmpty) {
          val cum = masses.scanLeft(0.0)(_ + _._2).tail
          val totalMass = math.max(cum.lastOption.getOrElse(0.0), 1e-12)
          tuples.foreach { t =>
            val u = rnd.nextDouble() * totalMass
            val c = cum.indexWhere(_ >= u) match { case -1 => masses.size - 1; case i => i }
            fill(t, masses(c)._1, sub.attrs)
          }
        } else {
          val sharedDims = shared.map(a => sub.attrs.indexOf(a))
          val groups = masses.groupBy { case (b, _) =>
            sharedDims.map(d => b.boxes.head.ivs(d).lo).toVector
          }
          val cums = groups.map { case (k, ms) =>
            k -> (ms, ms.scanLeft(0.0)(_ + _._2).tail)
          }
          tuples.foreach { t =>
            val sig = shared.map { a =>
              val bs = attrBounds(a)
              bs(cellIdx(a, t(attrPos(a)))) // cell lo of the tuple's value
            }.toVector
            cums.get(sig).orElse(cums.headOption.map(_._2)).foreach { case (ms, cum) =>
              val tm = math.max(cum.lastOption.getOrElse(0.0), 1e-12)
              val u = rnd.nextDouble() * tm
              val c = cum.indexWhere(_ >= u) match { case -1 => ms.size - 1; case i => i }
              fill(t, ms(c)._1, newAttrs)
            }
          }
        }
        assigned ++= sub.attrs
      }
      viewTuples(g.relation) = tuples
    }

    // Referential-integrity repair + FK assignment at cell granularity.
    // Dependents first: every view that appends to `t` runs before `t`'s
    // own FK pass, so that pass covers the appended tuples too.
    val extras = mutable.Map[String, Long]().withDefaultValue(0L)
    val fkVals = mutable.Map[String, Vector[Array[Long]]]()
    def sigOf(vals: Array[Double], attrs: Seq[String], idx: Seq[Int]): Vector[Int] =
      idx.zip(attrs).map { case (i, a) => cellIdx(a, vals(i)) }.toVector

    for (rel <- schema.dependentsFirst if viewTuples.contains(rel)) {
      val r = schema.byName(rel)
      val myAttrs = viewAttrs(rel)
      val fkCols = r.fks.toVector.map { fk =>
        val t = fk.target
        val tAttrs = viewAttrs(t)
        val proj = tAttrs.map(a => myAttrs.indexOf(a))
        val tOwnIdx = tAttrs.indices
        val index = mutable.HashMap[Vector[Int], Int]()
        viewTuples(t).zipWithIndex.foreach { case (tv, i) =>
          index.getOrElseUpdate(sigOf(tv, tAttrs, tOwnIdx), i)
        }
        val mine = viewTuples(rel)
        val col = new Array[Long](mine.size)
        var i = 0
        while (i < mine.size) {
          val sig = sigOf(mine(i), tAttrs, proj)
          val j = index.getOrElseUpdate(sig, {
            viewTuples(t) += proj.map(mine(i)).toArray
            extras(t) += 1L
            viewTuples(t).size - 1
          })
          col(i) = j + 1L
          i += 1
        }
        col
      }
      fkVals(rel) = fkCols
    }
    Result(viewAttrs, viewTuples.toMap, fkVals.toMap, extras.toMap)
  }

  /** Cardinality of a CC on the instantiated database (view-tuple count). */
  def ccCount(res: Result, cc: CC): Long = {
    val attrs = res.viewAttrs(cc.relation)
    val compiled: Vector[Vector[(Int, Interval)]] = cc.pred.conjuncts.toVector.map(
      _.ranges.toVector.map(r => (attrs.indexOf(r.attr), r.iv)))
    if (cc.pred.isTrue) res.viewTuples(cc.relation).size.toLong
    else res.viewTuples(cc.relation).count { t =>
      compiled.exists(_.forall { case (i, iv) => iv.contains(t(i)) })
    }.toLong
  }

  /** Extract materialized relations as DataFrames (pk, own attrs, FKs). */
  def toRelationDfs(spark: SparkSession, schema: SchemaDef, res: Result): Map[String, DataFrame] =
    res.viewTuples.keys.map { rel =>
      val r = schema.byName(rel)
      val myAttrs = res.viewAttrs(rel)
      val ownIdx = r.attrNames.toVector.map(myAttrs.indexOf)
      val fks = res.fkVals.getOrElse(rel, Vector.empty)
      val rows = res.viewTuples(rel).zipWithIndex.map { case (t, i) =>
        Row.fromSeq((i + 1L) +: (ownIdx.map(t) ++ fks.map(_(i))))
      }.toSeq
      val sch = StructType(
        StructField(r.pkCol, LongType, nullable = false) +:
        (r.attrNames.map(StructField(_, DoubleType, nullable = false)) ++
         r.fks.map(fk => StructField(fk.column, LongType, nullable = false))))
      rel -> spark.createDataFrame(spark.sparkContext.parallelize(rows, 16), sch)
    }.toMap
}
