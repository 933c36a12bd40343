package org.apache.spark

/** Spark delivers listener events asynchronously; a test that counts them
  * waits for the bus to drain first. The bus is private to Spark, hence this
  * accessor in Spark's package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
