package repro.core

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.SparkSpec
import repro.hydra.{DbSummary, Hydra, TupleGenerator}
import repro.tpcds.{TpcdsLite, TpcdsWorkload}
import scala.jdk.CollectionConverters._

class SparkJobsSpec extends SparkSpec {
  private def sc = spark.sparkContext

  test("results come in input order from at most defaultParallelism daemon threads, none alive after") {
    val rels = (1 to 12).map(i => s"r$i")
    val threads = ConcurrentHashMap.newKeySet[Thread]()
    val running = new AtomicInteger()
    val peak = new AtomicInteger()
    val out = SparkJobs.perRelation(sc, rels) { r =>
      threads.add(Thread.currentThread())
      peak.accumulateAndGet(running.incrementAndGet(), math.max)
      try spark.range(0, r.drop(1).toLong * 100).count()
      finally running.decrementAndGet()
    }
    assert(out == rels.map(_.drop(1).toLong * 100))
    assert(threads.size <= sc.defaultParallelism && peak.get <= sc.defaultParallelism)
    assert(!threads.contains(Thread.currentThread()))
    threads.forEach(t => assert(t.isDaemon && !t.isAlive, t.getName))
    assert(SparkJobs.perRelation(sc, Nil)(identity).isEmpty)
  }

  test("a relation whose job fails raises an error naming it, after the other jobs finish") {
    val finished = ConcurrentHashMap.newKeySet[String]()
    val threads = ConcurrentHashMap.newKeySet[Thread]()
    val e = intercept[IllegalStateException] {
      SparkJobs.perRelation(sc, Seq("a", "bad", "c", "worse")) { r =>
        threads.add(Thread.currentThread())
        if (r == "bad" || r == "worse")
          sc.parallelize(1 to 4, 2).map(i => if (i == 3) throw new ArithmeticException(s"boom $r") else i).count()
        else {
          Thread.sleep(300)
          sc.parallelize(1 to 100, 2).count()
          finished.add(r)
        }
      }
    }
    assert(e.getMessage.contains("relation bad"), e.getMessage)
    assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).exists(
      c => c.getMessage != null && c.getMessage.contains("boom bad")))
    assert(finished.asScala == Set("a", "c"))
    threads.forEach(t => assert(!t.isAlive, t.getName))
  }

  test("a local property set on the caller reaches every job of a capture and of a materialize") {
    val key = "repro.test.label"
    val labels = new ConcurrentLinkedQueue[Option[String]]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        labels.add(Option(e.properties).flatMap(p => Option(p.getProperty(key))))
    }
    def labelsOf(label: String)(body: => Any): Seq[Option[String]] = {
      ListenerBusAccess.drain(sc)
      labels.clear()
      sc.setLocalProperty(key, label)
      try body finally sc.setLocalProperty(key, null)
      ListenerBusAccess.drain(sc)
      labels.asScala.toVector
    }
    val schema = TpcdsLite.schema
    val client = TpcdsLite.clientDb(spark, 0.002)
    val ccs = Aqp.extractWorkloadCCs(schema, TpcdsWorkload.wls(), client)
    val path = java.nio.file.Files.createTempFile("jobs-label", ".summary").toString
    DbSummary.save(Hydra.buildSummary(schema, ccs, TpcdsLite.rowCounts(0.002)).summary, path)
    val out = java.nio.file.Files.createTempDirectory("jobs-label").toString
    sc.addSparkListener(listener)
    try {
      // A second round with new labels: threads kept from the first round
      // would still carry the old ones.
      for (round <- 1 to 2) {
        val capture = labelsOf(s"capture-$round")(Aqp.extractWorkloadCCs(schema, TpcdsWorkload.wls(), client))
        assert(capture.size >= ccs.map(_.relation).distinct.size)
        assert(capture.forall(_.contains(s"capture-$round")), capture)
        val materialize = labelsOf(s"materialize-$round")(TupleGenerator.materialize(spark, path, out))
        assert(materialize.size >= schema.relations.size)
        assert(materialize.forall(_.contains(s"materialize-$round")), materialize)
      }
    } finally sc.removeSparkListener(listener)
  }
}
