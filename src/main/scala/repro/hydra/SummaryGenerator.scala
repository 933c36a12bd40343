package repro.hydra

import repro.core._
import repro.hydra.LPFormulator.{SubViewSolution, ViewLpResult}
import scala.collection.mutable

/** Deterministic post-LP processing (§5): align & merge sub-view solutions
  * into view solutions, instantiate them at interval left boundaries, repair
  * referential integrity across views, and extract relation summaries.
  */
object SummaryGenerator {

  /** One interval-row of a partially merged view solution. */
  private final case class IRow(ivs: Vector[Interval], count: Long)

  /** Align & merge the RIP-ordered sub-view solutions into a single view
    * solution, then instantiate every interval at its left boundary
    * (§5.1–5.2). Unconstrained view attributes get their domain minimum.
    */
  def viewSolution(schema: SchemaDef, lp: ViewLpResult): ViewTable = {
    val allAttrs = schema.viewAttrs(lp.relation).toVector
    if (lp.total <= 0) return ViewTable(lp.relation, allAttrs, Vector.empty)

    var curAttrs = Vector.empty[String]
    var curRows = Vector.empty[IRow]
    lp.solutions.foreach { s =>
      val merged = mergeNext(lp.relation, curAttrs, curRows, s)
      curAttrs = merged._1; curRows = merged._2
    }
    if (curAttrs.isEmpty) {
      // No constrained attributes at all: one degenerate row of size total.
      val vals = allAttrs.map(a => schema.attrByName(a).lo)
      return ViewTable(lp.relation, allAttrs, Vector((vals, lp.total)))
    }
    // Extend with unconstrained attributes and order columns canonically.
    val missing = allAttrs.filterNot(curAttrs.contains)
    val extended = curAttrs ++ missing
    val defaults = missing.map(a => { val at = schema.attrByName(a); Interval(at.lo, at.hi) })
    val perm = allAttrs.map(extended.indexOf)
    val rows = curRows.filter(_.count > 0).map { r =>
      val full = r.ivs ++ defaults
      (perm.map(i => full(i).lo), r.count)
    }
    ViewTable(lp.relation, allAttrs, rows)
  }

  /** One align-and-merge step (Algorithm 3 + §5.1.2–5.1.3): sort both sides
    * on the shared-attribute cells, split rows so counts pair up, then join
    * positionally. An exact LP solution makes the per-cell totals match by
    * the consistency constraints; a cell whose totals differ fails.
    */
  private def mergeNext(
      relation: String,
      curAttrs: Vector[String],
      curRows: Vector[IRow],
      s: SubViewSolution,
  ): (Vector[String], Vector[IRow]) = {
    val sAttrs = s.sub.attrs
    val sRows = s.rows.map { case (b, c) => IRow(b.ivs, c) }
    if (curAttrs.isEmpty) return (sAttrs, sRows)

    val shared = curAttrs.filter(sAttrs.contains)
    val newAttrs = sAttrs.filterNot(shared.contains)
    val outAttrs = curAttrs ++ newAttrs
    val curSharedIdx = shared.map(curAttrs.indexOf)
    val sSharedIdx = shared.map(sAttrs.indexOf)
    val sNewIdx = newAttrs.map(sAttrs.indexOf)

    def sigOf(r: IRow, idx: Vector[Int]): Vector[Double] = idx.map(i => r.ivs(i).lo)
    val ga = curRows.groupBy(sigOf(_, curSharedIdx))
    val gb = sRows.groupBy(sigOf(_, sSharedIdx))
    val out = Vector.newBuilder[IRow]

    for (sig <- (ga.keySet ++ gb.keySet).toVector.sortBy(_.mkString(","))) {
      val as = ga.getOrElse(sig, Vector.empty)
      val bs = gb.getOrElse(sig, Vector.empty)
      val (totalA, totalB) = (as.map(_.count).sum, bs.map(_.count).sum)
      if (totalA != totalB) {
        val cell = shared.zip(sig).map { case (a, lo) => s"$a from $lo" }.mkString(", ")
        throw new IllegalStateException(
          s"align & merge of view $relation: shared cell ($cell) has $totalA tuples in " +
          s"(${curAttrs.mkString(", ")}) but $totalB in sub-view (${sAttrs.mkString(", ")})")
      }
      var i = 0; var j = 0
      var remA = if (as.nonEmpty) as(0).count else 0L
      var remB = if (bs.nonEmpty) bs(0).count else 0L
      while (i < as.size && j < bs.size) {
        val take = math.min(remA, remB)
        if (take > 0)
          out += IRow(as(i).ivs ++ sNewIdx.map(bs(j).ivs), take)
        remA -= take; remB -= take
        if (remA == 0) { i += 1; if (i < as.size) remA = as(i).count }
        if (remB == 0) { j += 1; if (j < bs.size) remB = bs(j).count }
      }
    }
    (outAttrs, out.result())
  }

  final case class Result(
      viewTables: Map[String, ViewTable],
      summary: DbSummary,
      extraTuples: Map[String, Long],
  )

  /** Full §5 pipeline: view solutions → cross-view referential-integrity
    * repair (topological, dependents first) → relation summaries with FK
    * values assigned by cumulative PK offsets into the referenced view.
    */
  def generate(schema: SchemaDef, lps: Seq[ViewLpResult]): Result = {
    val views = mutable.LinkedHashMap[String, mutable.ArrayBuffer[(Vector[Double], Long)]]()
    val viewAttrs = mutable.Map[String, Vector[String]]()
    lps.foreach { lp =>
      val vt = viewSolution(schema, lp)
      views(lp.relation) = mutable.ArrayBuffer.from(vt.rows)
      viewAttrs(lp.relation) = vt.attrs
    }
    val extras = mutable.Map[String, Long]().withDefaultValue(0L)

    // Make each view consistent with the views it borrows attributes from.
    for (rel <- schema.dependentsFirst if views.contains(rel);
         fk <- schema.byName(rel).fks) {
      val t = fk.target
      require(views.contains(t), s"view $rel depends on missing view $t")
      val tAttrs = viewAttrs(t)
      val proj = tAttrs.map(viewAttrs(rel).indexOf)
      val existing = mutable.Set[Vector[Double]]() ++= views(t).map(_._1)
      views(rel).foreach { case (vals, _) =>
        val combo = proj.map(vals)
        if (!existing.contains(combo)) {
          views(t) += ((combo, 1L))
          existing += combo
          extras(t) += 1L
        }
      }
    }

    // Extract relation summaries (§5.4).
    val startsOf: Map[String, Map[Vector[Double], Long]] = views.map { case (rel, rows) =>
      var cum = 0L
      val m = mutable.Map[Vector[Double], Long]()
      // Keep the FIRST matching block ("cumulative sum till v is reached").
      rows.foreach { case (vals, c) => if (!m.contains(vals)) m(vals) = cum; cum += c }
      rel -> m.toMap
    }.toMap

    val summaries = views.map { case (rel, rows) =>
      val r = schema.byName(rel)
      val ownIdx = r.attrNames.toVector.map(viewAttrs(rel).indexOf)
      val fkProj = r.fks.toVector.map { fk =>
        (fk.target, viewAttrs(fk.target).map(viewAttrs(rel).indexOf))
      }
      val outRows = rows.toVector.map { case (vals, c) =>
        val own = ownIdx.map(vals)
        val fkVals = fkProj.map { case (t, proj) =>
          val combo = proj.map(vals)
          startsOf(t).getOrElse(combo,
            throw new IllegalStateException(s"RI repair missed $combo for $rel → $t")) + 1L
        }
        (own, fkVals, c)
      }
      RelationSummary(rel, r.pkCol, r.attrNames.toVector, r.fks.toVector.map(_.column), outRows)
    }.toVector

    val viewTables = views.map { case (rel, rows) =>
      rel -> ViewTable(rel, viewAttrs(rel), rows.toVector)
    }.toMap
    Result(viewTables, DbSummary(summaries), extras.toMap)
  }
}
