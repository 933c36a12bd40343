package repro.hydra

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._

/** The database summary (§5): per-relation lists of value combinations with
  * tuple counts. This artifact is what ships to the engine — it is tiny
  * (workload-dependent, data-scale-free) and fully determines the database.
  */

/** A (post-consistency) view solution: all view attributes, concrete values
  * per row, and the number of tuples carrying those values.
  */
final case class ViewTable(relation: String, attrs: Vector[String],
                           rows: Vector[(Vector[Double], Long)]) {
  def total: Long = sum(rows.iterator.map(_._2))
  /** Count of tuples satisfying `pred` — the summary-side cardinality. */
  def countWhere(pred: repro.core.Dnf): Long =
    sum(rows.iterator.collect { case (v, c) if pred.eval(attrs.zip(v).toMap) => c })

  /** Σ `counts`; a sum that overflows a Long fails, naming the relation. */
  private def sum(counts: Iterator[Long]): Long = counts.foldLeft(0L) { (s, c) =>
    try Math.addExact(s, c) catch {
      case e: ArithmeticException =>
        throw new ArithmeticException(s"relation $relation: more than ${Long.MaxValue} tuples (${e.getMessage})")
    }
  }
}

/** Summarized relation R̃ (§5.4): own non-key attribute values, FK values
  * (already resolved to referenced PKs), and NumTuples, in a fixed row order
  * that assigns PK range `[start+1, start+count]` to each row.
  */
final case class RelationSummary(
    relation: String,
    pkCol: String,
    attrCols: Vector[String],
    fkCols: Vector[String],
    rows: Vector[(Vector[Double], Vector[Long], Long)],
) {
  def total: Long = starts.last
  /** Cumulative row-start offsets (rows(i) covers PKs (starts(i), starts(i+1)]);
    * a relation whose tuple count overflows a Long fails, naming it.
    */
  lazy val starts: Vector[Long] = rows.scanLeft(0L) { (s, r) =>
    try Math.addExact(s, r._3) catch {
      case e: ArithmeticException =>
        throw new ArithmeticException(s"relation $relation: more than ${Long.MaxValue} tuples (${e.getMessage})")
    }
  }

  /** The summary rows that hold PKs `(start, end]`, in PK order, each as
    * `(i, s, e)`: row `i` holds PKs `(s, e]` of the window. Rows of count 0
    * hold no PK and are skipped.
    */
  def runs(start: Long, end: Long): Iterator[(Int, Long, Long)] = {
    // The first row that can hold PK start + 1: the greatest i with starts(i) ≤ start.
    var lo = 0; var hi = rows.size - 1
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (starts(mid) <= start) lo = mid else hi = mid - 1
    }
    Iterator.range(lo, rows.size).takeWhile(starts(_) < end)
      .map(i => (i, math.max(start, starts(i)), math.min(end, starts(i + 1))))
      .filter { case (_, s, e) => e > s }
  }
}

final case class DbSummary(relations: Vector[RelationSummary]) {
  val byName: Map[String, RelationSummary] = relations.map(r => r.relation -> r).toMap
}

object DbSummary {
  /** Plain-text serialization — the artifact the vendor ships to the engine
    * and the input of the DataSourceV2 tuple generator.
    */
  def save(s: DbSummary, path: String): Unit = {
    val sb = new StringBuilder
    s.relations.foreach { r =>
      sb ++= s"relation ${r.relation} ${r.pkCol}\n"
      sb ++= s"attrs ${r.attrCols.mkString(",")}\n"
      sb ++= s"fks ${r.fkCols.mkString(",")}\n"
      r.rows.foreach { case (a, f, c) =>
        sb ++= s"row ${a.mkString(",")};${f.mkString(",")};$c\n"
      }
    }
    Files.write(Paths.get(path), sb.toString.getBytes(StandardCharsets.UTF_8))
  }

  def load(path: String): DbSummary = parse(
    Files.readAllLines(Paths.get(path), StandardCharsets.UTF_8).asScala.toVector)

  /** Parses [[save]]'s format. A line that breaks it fails, naming its
    * 1-based number and its relation: a line before the first `relation`
    * line, a row without three `;`-separated fields, a negative count, a row
    * whose attribute or FK arity differs from its relation's `attrs` and
    * `fks` lines, an `attrs` or `fks` line after rows, a repeated relation,
    * or a value that is not a number.
    */
  def parse(lines: Vector[String]): DbSummary = {
    val rels = Vector.newBuilder[RelationSummary]
    val seen = scala.collection.mutable.Set.empty[String]
    var name = ""; var pk = ""
    var attrs = Vector.empty[String]; var fks = Vector.empty[String]
    var rows = Vector.newBuilder[(Vector[Double], Vector[Long], Long)]
    var hasRows = false
    def flush(): Unit =
      if (name.nonEmpty) rels += RelationSummary(name, pk, attrs, fks, rows.result())
    def splitCsv(s: String): Vector[String] =
      if (s.isEmpty) Vector.empty else s.split(",", -1).toVector
    for ((line, n) <- lines.zipWithIndex if line.nonEmpty) {
      def fail(msg: String): Nothing = throw new IllegalArgumentException(
        s"summary line ${n + 1} (${if (name.isEmpty) "before any relation" else s"relation $name"}): $msg")
      val (tag, rest) = line.span(_ != ' ')
      val body = rest.drop(1)
      if (tag != "relation" && name.isEmpty) fail(s"'$tag' line before the first 'relation' line")
      try tag match {
        case "relation" =>
          flush()
          body.split(" ") match {
            case Array(r, p) => name = r; pk = p
            case _ => fail(s"'relation' needs a name and a PK column, got '$body'")
          }
          if (!seen.add(name)) fail("relation appears twice")
          attrs = Vector.empty; fks = Vector.empty; rows = Vector.newBuilder; hasRows = false
        case "attrs" | "fks" if hasRows => fail(s"'$tag' line after rows")
        case "attrs" => attrs = splitCsv(body)
        case "fks"   => fks = splitCsv(body)
        case "row" =>
          body.split(";", -1) match {
            case Array(a, f, c) =>
              val (av, fv, count) = (splitCsv(a).map(_.toDouble), splitCsv(f).map(_.toLong), c.toLong)
              if (av.size != attrs.size) fail(s"row has ${av.size} attribute values, relation has ${attrs.size} attrs")
              if (fv.size != fks.size) fail(s"row has ${fv.size} FK values, relation has ${fks.size} fks")
              if (count < 0) fail(s"negative count $count")
              rows += ((av, fv, count)); hasRows = true
            case parts => fail(s"row needs 3 ';'-separated fields, got ${parts.length}")
          }
        case other => fail(s"bad summary line tag: $other")
      } catch { case e: NumberFormatException => fail(s"not a number (${e.getMessage})") }
    }
    flush()
    DbSummary(rels.result())
  }
}
