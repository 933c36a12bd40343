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

  def parse(lines: Vector[String]): DbSummary = {
    val rels = Vector.newBuilder[RelationSummary]
    var name = ""; var pk = ""
    var attrs = Vector.empty[String]; var fks = Vector.empty[String]
    var rows = Vector.newBuilder[(Vector[Double], Vector[Long], Long)]
    def flush(): Unit =
      if (name.nonEmpty) rels += RelationSummary(name, pk, attrs, fks, rows.result())
    def splitCsv(s: String): Vector[String] =
      if (s.isEmpty) Vector.empty else s.split(",", -1).toVector
    lines.filter(_.nonEmpty).foreach { line =>
      val (tag, rest) = line.span(_ != ' ')
      val body = rest.drop(1)
      tag match {
        case "relation" =>
          flush()
          val parts = body.split(" "); name = parts(0); pk = parts(1)
          rows = Vector.newBuilder
        case "attrs" => attrs = splitCsv(body)
        case "fks"   => fks = splitCsv(body)
        case "row" =>
          val Array(a, f, c) = body.split(";", -1)
          rows += ((splitCsv(a).map(_.toDouble), splitCsv(f).map(_.toLong), c.toLong))
        case other => throw new IllegalArgumentException(s"bad summary line tag: $other")
      }
    }
    flush()
    DbSummary(rels.result())
  }
}
