package repro.hydra

import repro.core._
import repro.hydra.LPFormulator.{SubViewSolution, ViewLpResult}
import scala.collection.mutable

/** Deterministic post-LP processing (§5): align & merge sub-view solutions
  * into view solutions, instantiated at their regions' points, repair
  * referential integrity across views, and extract relation summaries.
  */
object SummaryGenerator {

  /** Align & merge the RIP-ordered sub-view solutions into a single view
    * solution (§5.1), starting from one row with no attributes that holds
    * the view total, so the first sub-view's counts are checked against the
    * total like any other key class. Every row is already instantiated at
    * its region's point (§5.2); unconstrained view attributes get their
    * domain minimum.
    */
  def viewSolution(schema: SchemaDef, lp: ViewLpResult): ViewTable = {
    val allAttrs = schema.viewAttrs(lp.relation).toVector
    val start = (Vector.empty[String], Vector((Vector.empty[Double], lp.total)))
    val (attrs, rows) = lp.solutions.foldLeft(start) { case ((curAttrs, curRows), s) =>
      mergeNext(lp.relation, curAttrs, curRows, s)
    }
    // Extend with unconstrained attributes and order columns canonically.
    val missing = allAttrs.filterNot(attrs.contains)
    val defaults = missing.map(schema.attrByName(_).lo)
    val perm = allAttrs.map((attrs ++ missing).indexOf)
    ViewTable(lp.relation, allAttrs,
      rows.filter(_._2 > 0).map { case (pt, c) => val full = pt ++ defaults; (perm.map(full), c) })
  }

  /** One align-and-merge step (Algorithm 3 + §5.1.2–5.1.3): group both
    * sides by the sub-view's key class (the truth vector of `s.key` at a
    * row's point), then pair counts positionally within each class. An
    * exact LP solution makes the per-class totals match by the consistency
    * constraints; a class whose totals differ fails.
    */
  private def mergeNext(
      relation: String,
      curAttrs: Vector[String],
      curRows: Vector[(Vector[Double], Long)],
      s: SubViewSolution,
  ): (Vector[String], Vector[(Vector[Double], Long)]) = {
    val sAttrs = s.sub.attrs
    val sNewIdx = sAttrs.indices.filterNot(i => curAttrs.contains(sAttrs(i))).toVector
    def keyed(attrs: Vector[String], rows: Vector[(Vector[Double], Long)]) =
      rows.map(r => s.key.map(_.eval(attrs.zip(r._1).toMap)) -> r)
    val (ka, kb) = (keyed(curAttrs, curRows), keyed(sAttrs, s.rows))
    val (ga, gb) = (ka.groupMap(_._1)(_._2), kb.groupMap(_._1)(_._2))
    val out = Vector.newBuilder[(Vector[Double], Long)]

    for (k <- (ka ++ kb).map(_._1).distinct) {
      val as = ga.getOrElse(k, Vector.empty)
      val bs = gb.getOrElse(k, Vector.empty)
      val (totalA, totalB) = (as.map(_._2).sum, bs.map(_._2).sum)
      if (totalA != totalB) {
        val cls = s.key.zip(k).map { case (c, t) => if (t) c.toSql else s"NOT ${c.toSql}" }
        val side = if (curAttrs.isEmpty) "the view total" else curAttrs.mkString("(", ", ", ")")
        throw new IllegalStateException(
          s"align & merge of view $relation: key class ${cls.mkString("[", ", ", "]")} has $totalA tuples " +
          s"in $side but $totalB in sub-view (${sAttrs.mkString(", ")})")
      }
      var i = 0; var j = 0
      var remA = if (as.nonEmpty) as(0)._2 else 0L
      var remB = if (bs.nonEmpty) bs(0)._2 else 0L
      while (i < as.size && j < bs.size) {
        val take = math.min(remA, remB)
        if (take > 0)
          out += ((as(i)._1 ++ sNewIdx.map(bs(j)._1), take))
        remA -= take; remB -= take
        if (remA == 0) { i += 1; if (i < as.size) remA = as(i)._2 }
        if (remB == 0) { j += 1; if (j < bs.size) remB = bs(j)._2 }
      }
    }
    (curAttrs ++ sNewIdx.map(sAttrs), out.result())
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
