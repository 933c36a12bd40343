package repro.core

/** Relational schema model for the regeneration pipeline.
  *
  * Following the paper's setup (§2, §3.1), all non-key attributes are numeric
  * (the client-side Anonymizer maps every value to a number), attribute names
  * are globally unique, every relation has a synthetic surrogate primary key
  * (its row number), and all joins are PK-FK.
  */

/** A non-key attribute with its (half-open) numeric domain `[lo, hi)`.
  * `categorical` marks integer-coded enumerations (the Anonymizer's output
  * for textual columns): generators produce integer values and workloads
  * filter them with aligned bucket/equality predicates, as benchmark
  * queries do.
  */
final case class Attr(name: String, lo: Double, hi: Double, categorical: Boolean = false) {
  require(lo < hi, s"empty domain for $name: [$lo, $hi)")
}

/** A foreign key column of a relation, referencing `target`'s primary key. */
final case class ForeignKey(column: String, target: String)

/** A relation: surrogate PK (`pkCol`), non-key attrs, and FKs to other
  * relations. Its instance sizes come from the generated client DB / CCs.
  */
final case class Relation(
    name: String,
    pkCol: String,
    attrs: Seq[Attr],
    fks: Seq[ForeignKey],
) {
  def attrNames: Seq[String] = attrs.map(_.name)
}

/** A schema: a set of relations whose FK references form a DAG. */
final case class SchemaDef(relations: Seq[Relation]) {
  val byName: Map[String, Relation] = relations.map(r => r.name -> r).toMap
  require(byName.size == relations.size, "duplicate relation names")
  relations.foreach(r =>
    r.fks.foreach(fk =>
      require(byName.contains(fk.target), s"${r.name} references unknown ${fk.target}")))

  /** Attribute lookup across the whole schema (names are globally unique). */
  val attrByName: Map[String, Attr] = {
    val all = relations.flatMap(_.attrs)
    require(all.map(_.name).distinct.size == all.size, "attribute names must be globally unique")
    all.map(a => a.name -> a).toMap
  }

  /** Direct referential dependencies: r -> relations it references. */
  def deps(r: String): Seq[String] = byName(r).fks.map(_.target)

  /** Relations in topological order with dependents BEFORE dependencies
    * (the order in which views are made consistent, §5.3).
    */
  lazy val dependentsFirst: Seq[String] = {
    val visited = scala.collection.mutable.LinkedHashSet[String]()
    def visit(r: String, stack: Set[String]): Unit = {
      require(!stack.contains(r), s"cycle in FK graph at $r")
      if (!visited.contains(r)) {
        deps(r).foreach(visit(_, stack + r))
        visited += r // post-order: dependencies first
      }
    }
    relations.foreach(r => visit(r.name, Set.empty))
    visited.toSeq.reverse // reverse post-order: dependents first
  }

  /** The attribute set of relation `r`'s *view* (§3.2): its own non-key
    * attributes plus, transitively, those of every relation it references.
    */
  def viewAttrs(r: String): Seq[String] = {
    val seen = scala.collection.mutable.LinkedHashSet[String]()
    def go(n: String): Unit = {
      byName(n).attrNames.foreach(seen += _)
      deps(n).foreach(go)
    }
    go(r)
    seen.toSeq
  }
}
