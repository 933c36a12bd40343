package repro.core

import org.apache.spark.sql.DataFrame

/** Reference CC extraction for tests: one Spark count per CC, each join
  * prefix counted by executing the query's left-deep PK-FK inner join, and
  * the first of repeated CCs wins. [[Aqp.extractWorkloadCCs]] must return
  * exactly what this returns on any database whose FKs resolve.
  */
object LeftDeepAqp {

  def extractWorkloadCCs(schema: SchemaDef, queries: Seq[Query],
                         dfs: Map[String, DataFrame]): Seq[CC] = {
    val counts = scala.collection.mutable.Map[(String, String), Long]()
    val seen = scala.collection.mutable.LinkedHashMap[(String, String), CC]()
    queries.flatMap(q => queryCCs(schema, q, dfs, counts))
      .foreach(cc => seen.getOrElseUpdate(cc.dedupKey, cc))
    seen.values.toSeq
  }

  private def queryCCs(schema: SchemaDef, q: Query, dfs: Map[String, DataFrame],
                       counts: scala.collection.mutable.Map[(String, String), Long]): Seq[CC] = {
    Aqp.validate(schema, q)
    def countOf(rel: String, pred: Dnf)(body: => Long): Long =
      counts.getOrElseUpdate(CC(rel, pred, 0).dedupKey, body)

    val base = q.relations.map(r => CC(r, Dnf.True, countOf(r, Dnf.True)(dfs(r).count())))
    val filterCCs = q.filters.toSeq.collect {
      case (rel, dnf) if !dnf.isTrue =>
        CC(rel, dnf, countOf(rel, dnf)(dfs(rel).filter(dnf.toColumn).count()))
    }
    def filtered(rel: String): DataFrame = q.filters.get(rel) match {
      case Some(p) if !p.isTrue => dfs(rel).filter(p.toColumn)
      case _                    => dfs(rel)
    }
    var cur = filtered(q.root)
    var pred = q.filters.getOrElse(q.root, Dnf.True)
    val joinCCs = q.joined.map { d =>
      val fk = q.relations.flatMap(r => schema.byName(r).fks.filter(_.target == d)).head
      val fd = filtered(d)
      cur = cur.join(fd, cur(fk.column) === fd(schema.byName(d).pkCol))
      pred = pred.and(q.filters.getOrElse(d, Dnf.True))
      val p = pred
      CC(q.root, p, countOf(q.root, p)(cur.count()))
    }
    base ++ filterCCs ++ joinCCs
  }
}
