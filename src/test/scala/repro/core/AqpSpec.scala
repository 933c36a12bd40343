package repro.core

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.plans.LeftSemi
import org.apache.spark.sql.catalyst.plans.physical.SinglePartition
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanHelper, ShuffleQueryStageExec}
import org.apache.spark.sql.execution.aggregate.BaseAggregateExec
import org.apache.spark.sql.execution.exchange.ShuffleExchangeLike
import org.apache.spark.sql.execution.joins.{BaseJoinExec, BroadcastHashJoinExec}
import org.apache.spark.sql.util.QueryExecutionListener
import repro.SparkSpec
import repro.hydra.{DbSummary, Hydra, RelationSummary, TupleGenerator}
import scala.jdk.CollectionConverters._

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

class AqpSpec extends SparkSpec with AdaptiveSparkPlanHelper {
  private val schema = repro.tpcds.TpcdsLite.schema
  private lazy val dfs = repro.tpcds.TpcdsLite.clientDb(spark, 0.002)

  /** `body`'s result and the query executions of the Spark actions it ran
    * on `session` (whose listeners hear only its own queries).
    */
  private def actions[A](session: SparkSession)(body: => A): (A, Seq[QueryExecution]) = {
    val seen = new ConcurrentLinkedQueue[QueryExecution]()
    val listener = new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = seen.add(qe)
      override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = seen.add(qe)
    }
    session.listenerManager.register(listener)
    try {
      val a = body
      ListenerBusAccess.drain(spark.sparkContext)
      (a, seen.asScala.toSeq)
    } finally session.listenerManager.unregister(listener)
  }

  /** The left semi-joins in the executed plans of `qes`. */
  private def semiJoins(qes: Seq[QueryExecution]): Seq[SparkPlan] =
    qes.flatMap(qe => collect(qe.executedPlan) { case j: BaseJoinExec if j.joinType == LeftSemi => j })

  private def sizeOf(df: DataFrame): BigInt = df.queryExecution.optimizedPlan.stats.sizeInBytes

  private def setThreshold(session: SparkSession, bytes: BigInt): Unit =
    session.conf.set("spark.sql.autoBroadcastJoinThreshold", bytes.toString)

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
    val session = spark.newSession()
    val client = repro.tpcds.TpcdsLite.clientDb(session, 0.002)
    val (ccs, qes) = actions(session)(Aqp.extractWorkloadCCs(schema, repro.tpcds.TpcdsWorkload.wls(), client))
    assert(qes.size == ccs.map(_.relation).distinct.size)
  }

  test("a WLs capture runs no aggregate and no single-partition shuffle: one job per relation besides its view's stages") {
    val session = spark.newSession()
    setThreshold(session, BigInt(10L << 20)) // Spark's default: the dimensions are broadcast
    val client = repro.tpcds.TpcdsLite.clientDb(session, 0.002)
    val sc = spark.sparkContext
    val jobs = new ConcurrentLinkedQueue[java.util.Properties]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.add(e.properties)
    }
    ListenerBusAccess.drain(sc)
    sc.addSparkListener(listener)
    val (ccs, qes) =
      try actions(session)(Aqp.extractWorkloadCCs(schema, repro.tpcds.TpcdsWorkload.wls(), client))
      finally sc.removeSparkListener(listener)

    qes.foreach { qe =>
      val aggregates = collect(qe.executedPlan) { case a: BaseAggregateExec => a }
      val gathers = collect(qe.executedPlan) {
        case s: ShuffleExchangeLike if s.outputPartitioning == SinglePartition => s
      }
      assert(aggregates.isEmpty && gathers.isEmpty, qe.executedPlan.treeString)
    }
    // Besides the broadcasts, an execution runs one job per shuffle stage of
    // its view (adaptive execution materializes each alone) and one job
    // that counts.
    val broadcast = (p: java.util.Properties) => Option(p.getProperty("spark.job.tags")).exists(_.contains("broadcast"))
    val byExecution = jobs.asScala.toSeq.groupBy(p => Option(p.getProperty("spark.sql.execution.id")))
    assert(jobs.asScala.exists(broadcast), "no broadcast ran")
    assert(byExecution.size == ccs.map(_.relation).distinct.size && !byExecution.contains(None))
    val shuffleStages = qes.map(qe => collect(qe.executedPlan) { case s: ShuffleQueryStageExec => s }.size)
    assert(byExecution.values.map(_.count(!broadcast(_))).toSeq.sorted == shuffleStages.map(_ + 1).sorted)
  }

  test("a relation with no tuples counts 0 for every CC, as a client frame and regenerated") {
    val sch = SchemaDef(Seq(
      Relation("S", "s_pk", Seq(Attr("A", 0, 10)), Nil),
      Relation("R", "r_pk", Seq(Attr("B", 0, 10)), Seq(ForeignKey("r_s", "S")))))
    val session = spark
    import session.implicits._
    val client = Map(
      "S" -> Seq((1L, 1.0), (2L, 7.0)).toDF("s_pk", "A"),
      "R" -> Seq.empty[(Long, Double, Long)].toDF("r_pk", "B", "r_s"))
    val path = java.nio.file.Files.createTempFile("aqp-empty", ".summary").toString
    DbSummary.save(DbSummary(Vector(
      RelationSummary("S", "s_pk", Vector("A"), Vector.empty,
        Vector((Vector(1.0), Vector.empty, 1L), (Vector(7.0), Vector.empty, 1L))),
      RelationSummary("R", "r_pk", Vector("B"), Vector("r_s"), Vector.empty))), path)
    val regenerated = Seq("S", "R").map(r => r -> TupleGenerator.dataFrame(spark, path, r)).toMap
    assert(regenerated("R").rdd.getNumPartitions == 0)
    val own = Query("R", Nil, Map("R" -> range("B", 0, 5)))
    val joined = Query("R", Seq("S"), Map("R" -> range("B", 0, 5), "S" -> range("A", 0, 5)))
    for ((db, name) <- Seq(client -> "client", regenerated -> "regenerated"); q <- Seq(own, joined)) {
      val card = Aqp.extractWorkloadCCs(sch, Seq(q), db).map(c => (c.relation, c.pred.attrs) -> c.card).toMap
      val rCards = card.collect { case ((r, _), n) if r == "R" => n }
      assert(rCards.size == q.relations.size + 1 && rCards.forall(_ == 0), s"$name: $card")
      if (q.joined.nonEmpty) assert(card(("S", Set("A"))) == 1, s"$name: $card")
    }
  }

  test("a relation whose only CC is its size counts its rows through a zero-column projection") {
    val session = spark.newSession()
    val client = repro.tpcds.TpcdsLite.clientDb(session, 0.002)
    val (ccs, qes) = actions(session)(Aqp.extractWorkloadCCs(schema, Seq(Query("store", Nil, Map.empty)), client))
    assert(ccs == Seq(CC("store", Dnf.True, client("store").count())))
    assert(qes.size == 1 && qes.head.executedPlan.output.isEmpty, qes.map(_.executedPlan.treeString))
  }

  /** A session whose broadcast threshold is the size of the SF 0.002
    * `store_returns.sr_ticket` column, below `store_sales`' size, so that the
    * `sr_ticket → store_sales` edge is semi-join reduced; and its client DB.
    */
  private lazy val reducing: (SparkSession, Map[String, DataFrame]) = {
    val session = spark.newSession()
    val client = repro.tpcds.TpcdsLite.clientDb(session, 0.002)
    val keys = sizeOf(client("store_returns").select("sr_ticket"))
    assert(keys < sizeOf(client("store_sales")))
    setThreshold(session, keys)
    (session, client)
  }

  for ((name, wl) <- Seq(("WLs", repro.tpcds.TpcdsWorkload.wls()), ("WLc", repro.tpcds.TpcdsWorkload.wlc()))) {
    test(s"$name: a semi-join reduced capture gives the left-deep and the unreduced counts") {
      val (session, client) = reducing
      val (ccs, qes) = actions(session)(Aqp.extractWorkloadCCs(schema, wl, client))
      assert(semiJoins(qes).exists(_.isInstanceOf[BroadcastHashJoinExec]), "no broadcast semi-join ran")
      assert(ccs == LeftDeepAqp.extractWorkloadCCs(schema, wl, client))
      assert(ccs == Aqp.extractWorkloadCCs(schema, wl, dfs))
    }
  }

  test("a view side is semi-join reduced only if it is over the threshold and its keys under it") {
    val session = spark.newSession()
    val client = repro.tpcds.TpcdsLite.clientDb(session, 0.002)
    val q = Query("store_returns", Seq("store_sales"), Map("store_sales" -> range("ss_quantity", 1, 50)))
    val target = sizeOf(client("store_sales"))
    val keys = sizeOf(client("store_returns").select("sr_ticket"))
    val unreduced = Aqp.extractWorkloadCCs(schema, Seq(q), dfs)
    // The target under the threshold; the keys over it; both in between.
    for ((threshold, reduced) <- Seq(target -> 0, (keys - 1) -> 0, keys -> 1)) {
      setThreshold(session, threshold)
      val (ccs, qes) = actions(session)(Aqp.extractWorkloadCCs(schema, Seq(q), client))
      assert(semiJoins(qes).size == reduced, s"threshold $threshold (target $target, keys $keys)")
      assert(ccs == unreduced)
    }
  }

  test("WLs ×100 regenerated: store_returns' CCs shuffle fewer records than store_sales has rows") {
    val wls = repro.TestWorkloads.wls
    val res = Hydra.buildSummary(schema, wls.ccs.map(_.scaled(100)),
      wls.totals.map { case (r, n) => r -> CC.scaledCount(r, n, 100) })
    val path = java.nio.file.Files.createTempFile("aqp-x100", ".summary").toString
    DbSummary.save(res.summary, path)
    val session = spark.newSession()
    setThreshold(session, BigInt(10L << 20)) // Spark's default
    val frames = schema.relations.map(r => r.name -> TupleGenerator.dataFrame(session, path, r.name)).toMap
    val queries = repro.tpcds.TpcdsWorkload.wls().filter(_.root == "store_returns")
    assert(queries.nonEmpty)

    val sc = spark.sparkContext
    val records = new AtomicLong()
    val listener = new SparkListener {
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (e.taskMetrics != null) records.addAndGet(e.taskMetrics.shuffleWriteMetrics.recordsWritten)
    }
    ListenerBusAccess.drain(sc)
    sc.addSparkListener(listener)
    val ccs = try {
      val ccs = Aqp.extractWorkloadCCs(schema, queries, frames)
      ListenerBusAccess.drain(sc)
      ccs
    } finally sc.removeSparkListener(listener)

    val storeSales = res.summary.byName("store_sales").total
    assert(records.get < storeSales, s"${records.get} shuffle records, store_sales has $storeSales rows")
    assert(ccs.exists(_.relation == "store_returns"))
    ccs.foreach(cc => assert(cc.card == res.ccCount(cc), cc))
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

  test("a dangling FK into a semi-join reduced relation counts for the base CC and own-attribute CCs only") {
    val sch = SchemaDef(Seq(
      Relation("T", "t_pk", Seq(Attr("C", 0, 10)), Nil),
      Relation("S", "s_pk", Seq(Attr("A", 0, 10)), Seq(ForeignKey("s_t", "T"))),
      Relation("R", "r_pk", Seq(Attr("B", 0, 10)), Seq(ForeignKey("r_s", "S")))))
    val session = spark.newSession()
    import session.implicits._
    val db = Map(
      "T" -> Seq((1L, 1.0), (2L, 5.0)).toDF("t_pk", "C"),
      "S" -> (1L to 200L).map(k => (k, (k % 10).toDouble, 1 + k % 2)).toDF("s_pk", "A", "s_t"),
      "R" -> Seq((1L, 1.0, 1L), (2L, 2.0, 2L), (3L, 3.0, 999L)).toDF("r_pk", "B", "r_s"))
    val q = Query("R", Seq("S", "T"),
      Map("R" -> range("B", 0, 10), "S" -> range("A", 0, 10), "T" -> range("C", 0, 10)))
    val unreduced = Aqp.extractWorkloadCCs(sch, Seq(q), db)
    setThreshold(session, sizeOf(db("R").select("r_s")))
    assert(sizeOf(db("S")) > sizeOf(db("R").select("r_s")))
    val (ccs, qes) = actions(session)(Aqp.extractWorkloadCCs(sch, Seq(q), db))
    assert(semiJoins(qes).nonEmpty)
    assert(ccs == unreduced)
    val card = ccs.map(c => (c.relation, c.pred.attrs) -> c.card).toMap
    assert(card(("R", Set.empty[String])) == 3)    // every R tuple, dangling or not
    assert(card(("R", Set("B"))) == 3)             // looks at R only
    assert(card(("R", Set("A", "B"))) == 2)        // needs the S tuple that is missing
    assert(card(("R", Set("A", "B", "C"))) == 2)
    assert(card(("S", Set("A"))) == 200)            // S's own count is not reduced
    assert(card(("T", Set("C"))) == 2)
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
