package org.apache.spark

/** The listener bus delivers events asynchronously; the benchmark waits for
  * it to drain before it reads its counters. The bus is private to Spark,
  * hence this accessor in Spark's package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
