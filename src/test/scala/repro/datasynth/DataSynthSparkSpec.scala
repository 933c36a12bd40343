package repro.datasynth

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core._

/** DataSynth's materialized relations, checked through Spark + DuckDB. */
class DataSynthSparkSpec extends SparkSpec {
  private val schema = SchemaDef(Seq(
    Relation("T", "T_pk", Seq(Attr("C", 0, 5)), Nil),
    Relation("S", "S_pk", Seq(Attr("A", 0, 100), Attr("B", 0, 10)), Nil),
    Relation("R", "R_pk", Nil, Seq(ForeignKey("S_fk", "S"), ForeignKey("T_fk", "T"))),
  ))
  private def between(attr: String, lo: Double, hi: Double) =
    Dnf.of(Conjunct.range(attr, lo, hi))
  private val ccs = Seq(
    CC("R", Dnf.True, 4000), CC("S", Dnf.True, 300), CC("T", Dnf.True, 500),
    CC("S", between("A", 20, 60), 150),
    CC("R", between("A", 20, 60), 2500))

  private lazy val grids = DataSynth.solveViews(schema, ccs)
  private lazy val res = DataSynth.instantiate(schema, grids, ccs, seed = 31)
  private lazy val dfs = DataSynth.toRelationDfs(spark, schema, res)

  test("materialized relations have the instantiated sizes") {
    for (r <- schema.relations) {
      assert(dfs(r.name).count() == res.viewTuples(r.name).size.toLong)
    }
  }

  test("PKs are 1..N") {
    val mm = dfs("S").agg(min("S_pk"), max("S_pk"), count(lit(1))).head()
    assert(mm.getLong(0) == 1L && mm.getLong(1) == mm.getLong(2))
  }

  test("no dangling FKs after repair (Spark anti-join)") {
    for (r <- schema.relations; fk <- r.fks) {
      val dangling = dfs(r.name)
        .join(dfs(fk.target),
          dfs(r.name)(fk.column) === dfs(fk.target)(schema.byName(fk.target).pkCol),
          "left_anti")
        .count()
      assert(dangling == 0, s"${r.name}.${fk.column} dangling: $dangling")
    }
  }

  test("oracle: materialized relation aggregates agree with DuckDB") {
    val s = dfs("S")
    val q = s.agg(count(lit(1)).as("cnt"), sum("B").as("sumb")).select("cnt", "sumb")
    Oracle.assertEquivalent(q,
      "SELECT count(*) AS cnt, sum(CAST(B AS DOUBLE)) AS sumb FROM s", "s" -> s)
  }

  test("join cardinality approximates the CC (cell-aligned FK matching)") {
    val r = dfs("R"); val s = dfs("S")
    val joined = r.join(s, r("S_fk") === s("S_pk"))
      .filter(between("A", 20, 60).toColumn).count()
    // Borrowed-attr evaluation and join evaluation agree at cell granularity.
    val direct = res.ccCount(CC("R", between("A", 20, 60), 0))
    assert(joined == direct, s"join says $joined, view tuples say $direct")
  }
}
