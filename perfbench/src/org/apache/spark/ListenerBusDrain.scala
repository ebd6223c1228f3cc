package org.apache.spark

/** Blocks until Spark's asynchronous listener bus has delivered every event
  * posted so far, so task metrics can be attributed to the operation that
  * produced them without sleeping. `listenerBus` is package-private, hence
  * this one-method bridge in Spark's package.
  */
object ListenerBusDrain {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
