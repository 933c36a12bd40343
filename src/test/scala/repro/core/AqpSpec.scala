package repro.core

import org.apache.spark.ListenerBusAccess
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener
import repro.SparkSpec

class ClientDbSpec extends SparkSpec {
  private val schema = repro.tpcds.TpcdsLite.schema

  test("row counts match the spec") {
    val counts = repro.tpcds.TpcdsLite.rowCounts(0.002)
    val dfs = repro.tpcds.TpcdsLite.clientDb(spark, 0.002)
    for ((rel, n) <- counts)
      assert(dfs(rel).count() == n, s"row count mismatch for $rel")
  }

  test("attribute values stay inside their domains") {
    val dfs = repro.tpcds.TpcdsLite.clientDb(spark, 0.002)
    for (r <- schema.relations; a <- r.attrs) {
      val mm = dfs(r.name).agg(
        org.apache.spark.sql.functions.min(a.name),
        org.apache.spark.sql.functions.max(a.name)).head()
      assert(mm.getDouble(0) >= a.lo && mm.getDouble(1) < a.hi, s"${a.name} out of domain")
    }
  }

  test("FK values reference existing PKs") {
    val counts = repro.tpcds.TpcdsLite.rowCounts(0.002)
    val dfs = repro.tpcds.TpcdsLite.clientDb(spark, 0.002)
    for (r <- schema.relations; fk <- r.fks) {
      val mm = dfs(r.name).agg(
        org.apache.spark.sql.functions.min(fk.column),
        org.apache.spark.sql.functions.max(fk.column)).head()
      assert(mm.getLong(0) >= 1 && mm.getLong(1) <= counts(fk.target),
        s"${fk.column} outside [1, ${counts(fk.target)}]")
    }
  }

  test("generation is deterministic in the seed") {
    val a = repro.tpcds.TpcdsLite.clientDb(spark, 0.002, seed = 5)("store")
    val b = repro.tpcds.TpcdsLite.clientDb(spark, 0.002, seed = 5)("store")
    assert(a.exceptAll(b).isEmpty && b.exceptAll(a).isEmpty)
  }
}

class AqpSpec extends SparkSpec {
  private val schema = repro.tpcds.TpcdsLite.schema
  private lazy val dfs = repro.tpcds.TpcdsLite.clientDb(spark, 0.002)

  private val q = Query(
    "store_sales", Seq("item", "date_dim"),
    Map(
      "store_sales" -> Dnf.of(Conjunct.range("ss_quantity", 1, 50)),
      "item" -> Dnf.of(Conjunct.range("i_category", 1, 5)),
      "date_dim" -> Dnf.of(Conjunct.range("d_year", 2000, 2002))))

  private def range(attr: String, lo: Double, hi: Double) = Dnf.of(Conjunct.range(attr, lo, hi))

  test("validate accepts a realizable join order and rejects a bad one") {
    Aqp.validate(schema, q)
    intercept[IllegalArgumentException] {
      Aqp.validate(schema, Query("store_sales", Seq("warehouse"), Map.empty))
    }
    intercept[IllegalArgumentException] { // filter on a non-own attribute
      Aqp.validate(schema, Query("store_sales", Seq("item"),
        Map("item" -> Dnf.of(Conjunct.range("ss_quantity", 0, 1)))))
    }
  }

  test("snowflake chain store_returns → store_sales → item validates") {
    Aqp.validate(schema, Query("store_returns", Seq("store_sales", "item"), Map.empty))
  }

  test("extracted CCs carry base sizes, filter counts and join-prefix counts") {
    val ccs = Aqp.extractWorkloadCCs(schema, Seq(q), dfs)
    // base CCs for 3 relations + 3 filter CCs + 2 join-prefix CCs.
    assert(ccs.count(_.pred.isTrue) == 3)
    assert(ccs.size == 8)
    val base = ccs.find(c => c.relation == "store_sales" && c.pred.isTrue).get
    assert(base.card == dfs("store_sales").count())
  }

  test("filter CC counts match direct Spark filters") {
    val ccs = Aqp.extractWorkloadCCs(schema, Seq(q), dfs)
    val itemCc = ccs.find(c => c.relation == "item" && !c.pred.isTrue).get
    assert(itemCc.card == dfs("item").filter(itemCc.pred.toColumn).count())
  }

  test("join-prefix CC equals the manually computed join cardinality") {
    val ccs = Aqp.extractWorkloadCCs(schema, Seq(q), dfs)
    val full = ccs.filter(c => c.relation == "store_sales" && !c.pred.isTrue)
      .maxBy(_.pred.attrs.size)
    val ss = dfs("store_sales").filter(q.filters("store_sales").toColumn)
    val it = dfs("item").filter(q.filters("item").toColumn)
    val dd = dfs("date_dim").filter(q.filters("date_dim").toColumn)
    val expect = ss
      .join(it, ss("ss_itemkey") === it("i_itemkey"))
      .join(dd, ss("ss_datekey") === dd("d_datekey"))
      .count()
    assert(full.card == expect)
  }

  test("workload extraction de-duplicates repeated CCs") {
    val ccs = Aqp.extractWorkloadCCs(schema, Seq(q, q), dfs)
    assert(ccs.map(_.dedupKey).distinct.size == ccs.size)
    assert(ccs.size == 8)
  }

  private lazy val jobDb = repro.job.JobLite.clientDb(spark, 0.002)
  for ((name, wlSchema, wl, client) <- Seq(
      ("WLs", schema, repro.tpcds.TpcdsWorkload.wls(), () => dfs),
      ("WLc", schema, repro.tpcds.TpcdsWorkload.wlc(), () => dfs),
      ("JOB", repro.job.JobLite.schema, repro.job.JobWorkload.queries(), () => jobDb)))
  {
    test(s"$name: one aggregate per relation view gives the left-deep per-CC counts") {
      assert(Aqp.extractWorkloadCCs(wlSchema, wl, client()) ==
        LeftDeepAqp.extractWorkloadCCs(wlSchema, wl, client()))
    }
    test(s"$name: three repeated concurrent captures are identical") {
      val captures = Seq.fill(3)(Aqp.extractWorkloadCCs(wlSchema, wl, client()))
      assert(captures.distinct.size == 1)
    }
  }

  test("capture runs one Spark action per relation that has CCs") {
    val session = spark.newSession() // its listeners hear only its own queries
    val client = repro.tpcds.TpcdsLite.clientDb(session, 0.002)
    val actions = new java.util.concurrent.atomic.AtomicInteger()
    val listener = new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        actions.incrementAndGet()
      override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit =
        actions.incrementAndGet()
    }
    session.listenerManager.register(listener)
    try {
      val ccs = Aqp.extractWorkloadCCs(schema, repro.tpcds.TpcdsWorkload.wls(), client)
      ListenerBusAccess.drain(spark.sparkContext)
      assert(actions.get == ccs.map(_.relation).distinct.size)
    } finally session.listenerManager.unregister(listener)
  }

  test("a dangling FK counts for the base CC and for no predicate on the missing tuple") {
    val sch = SchemaDef(Seq(
      Relation("S", "s_pk", Seq(Attr("A", 0, 10)), Nil),
      Relation("R", "r_pk", Seq(Attr("B", 0, 10)), Seq(ForeignKey("r_s", "S")))))
    val session = spark
    import session.implicits._
    val db = Map(
      "S" -> Seq((1L, 1.0), (2L, 5.0)).toDF("s_pk", "A"),
      "R" -> Seq((1L, 1.0, 1L), (2L, 2.0, 2L), (3L, 3.0, 9L)).toDF("r_pk", "B", "r_s"))
    val ccs = Aqp.extractWorkloadCCs(sch,
      Seq(Query("R", Seq("S"), Map("R" -> range("B", 0, 10), "S" -> range("A", 0, 10)))), db)
    val card = ccs.map(c => (c.relation, c.pred.attrs) -> c.card).toMap
    assert(card(("R", Set.empty[String])) == 3) // every R tuple, dangling or not
    assert(card(("R", Set("B"))) == 3)          // looks at R only
    assert(card(("R", Set("A", "B"))) == 2)     // needs the S tuple that is missing
    assert(card(("S", Set("A"))) == 2)
  }

  test("a FK closure that reaches a relation twice is rejected, naming both paths") {
    val diamond = SchemaDef(Seq(
      Relation("D", "d_pk", Seq(Attr("x", 0, 1)), Nil),
      Relation("M", "m_pk", Nil, Seq(ForeignKey("m_d", "D"))),
      Relation("F", "f_pk", Nil, Seq(ForeignKey("f_m", "M"), ForeignKey("f_d", "D")))))
    val e = intercept[IllegalArgumentException] {
      Aqp.extractWorkloadCCs(diamond, Seq(Query("F", Seq("M"), Map.empty)), Map.empty)
    }
    assert(e.getMessage.contains("FK closure of F reaches D twice"), e.getMessage)
    assert(e.getMessage.contains("F.f_m → M.m_d → D") && e.getMessage.contains("F.f_d → D"),
      e.getMessage)
  }

  test("generated WLs workload queries all validate") {
    repro.tpcds.TpcdsWorkload.wls().foreach(Aqp.validate(schema, _))
    repro.tpcds.TpcdsWorkload.wlc().foreach(Aqp.validate(schema, _))
    repro.job.JobWorkload.queries().foreach(Aqp.validate(repro.job.JobLite.schema, _))
  }

  test("workload generation is deterministic") {
    assert(repro.tpcds.TpcdsWorkload.wlc() == repro.tpcds.TpcdsWorkload.wlc())
  }
}
