package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.SparkContext
import scala.util.control.NonFatal

/** Independent per-relation Spark actions, run at the same time. One
  * relation's job is often a few small tasks; run one after another, such
  * jobs leave most cores idle.
  */
object SparkJobs {

  /** `action(r)` for every `r` of `relations`, in input order.
    *
    * At most `sc.defaultParallelism` daemon threads run the actions. They are
    * created on the calling thread, so every job inherits the caller's Spark
    * local properties (job group, description, scheduler pool), which are an
    * `InheritableThreadLocal`; a shared pool would carry whatever its threads
    * inherited when they were first made. The call waits for every action,
    * then rethrows the first failure in input order, naming its relation. No
    * thread is left running when it returns.
    */
  def perRelation[A](sc: SparkContext, relations: Seq[String])(action: String => A): Seq[A] = {
    val results = new Array[Any](relations.size)
    val failures = new Array[Throwable](relations.size)
    val next = new AtomicInteger()
    val workers = Vector.tabulate(math.min(sc.defaultParallelism, relations.size)) { w =>
      val t = new Thread(() => {
        var i = next.getAndIncrement()
        while (i < relations.size) {
          try results(i) = action(relations(i))
          catch { case e: Throwable => failures(i) = e }
          i = next.getAndIncrement()
        }
      }, s"spark-jobs-$w")
      t.setDaemon(true)
      t
    }
    try {
      workers.foreach(_.start())
      workers.foreach(_.join())
    } finally {
      // Only reached with live workers if the caller was interrupted.
      workers.foreach(_.interrupt())
      workers.foreach(_.join())
    }
    failures.indices.find(failures(_) != null).foreach { i =>
      failures(i) match {
        case NonFatal(e) =>
          throw new IllegalStateException(s"Spark job for relation ${relations(i)} failed: ${e.getMessage}", e)
        case e => throw e
      }
    }
    results.toSeq.asInstanceOf[Seq[A]]
  }
}
