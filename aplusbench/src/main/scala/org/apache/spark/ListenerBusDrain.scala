package org.apache.spark

/** Waits until every listener event posted so far has been delivered, so
  * counts read from a listener after an action include that action. The
  * listener bus is private to Spark, hence this file's package. */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
