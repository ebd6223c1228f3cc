package repro.perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** One timed call into a layer. `parent` is -1 for a root span; all spans of
  * one operation share `op`.
  */
final case class Span(id: Int, parent: Int, op: Int, name: String, startNs: Long, endNs: Long) {
  def durationNs: Long = endNs - startNs
}

/** In-memory span and counter recorder for the traced run. Spans are taken
  * in the benchmark's own code, around its calls into each layer's public
  * functions; the program itself is not instrumented. Everything runs on the
  * single driver thread, so no synchronisation is needed. With tracing off,
  * `span` costs one branch.
  */
object Trace {
  var enabled: Boolean = false

  private val spans   = mutable.ArrayBuffer.empty[Span]
  private var stack   = List.empty[Int]
  private var opId    = -1
  private var counts  = mutable.LinkedHashMap.empty[String, Long]

  /** Start a new operation. Counters restart per operation. */
  def beginOp(): Unit = { opId += 1; counts = mutable.LinkedHashMap.empty }

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id     = spans.size
      val parent = stack.headOption.getOrElse(-1)
      spans += Span(id, parent, opId, name, System.nanoTime(), 0L)
      stack = id :: stack
      try body
      finally {
        stack = stack.tail
        spans(id) = spans(id).copy(endNs = System.nanoTime())
      }
    }

  /** Add `v` to a counter of the current operation (traced cycles only). */
  def count(name: String, v: Long): Unit =
    if (enabled) counts.update(name, counts.getOrElse(name, 0L) + v)

  def opCounts: Map[String, Long] = counts.toMap

  def all: Vector[Span] = spans.toVector

  /** Self time: duration minus the time covered by direct children. */
  def selfTimes: Map[String, Long] = {
    val childNs = spans.iterator.filter(_.parent >= 0).toVector
      .groupMapReduce(_.parent)(_.durationNs)(_ + _)
    spans.iterator.toVector
      .groupMapReduce(_.name)(s => s.durationNs - childNs.getOrElse(s.id, 0L))(_ + _)
  }

  /** Spans as JSON lines (`name`, `id`, `parent`, `op`, `start_ns`, `end_ns`). */
  def writeJsonLines(file: java.io.File): Unit = {
    val out = new java.io.PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      out.println(s"""{"name":"${s.name}","id":${s.id},"parent":${s.parent},"op":${s.op},""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs}}""")
    } finally out.close()
  }

  /** Bytes allocated so far by the calling thread. */
  def threadAllocatedBytes(): Long =
    ManagementFactory.getThreadMXBean match {
      case t: com.sun.management.ThreadMXBean => t.getThreadAllocatedBytes(Thread.currentThread.getId)
      case _                                  => 0L
    }

  /** Total collection time of all garbage collectors so far. */
  def gcMillis(): Long = {
    import scala.jdk.CollectionConverters._
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ > 0).sum
  }
}

/** Spark task metrics summed from the listener bus. `measure` drains the bus
  * before and after the body, so the totals it returns belong to the body.
  */
final class SparkTaskCounters(spark: SparkSession) extends SparkListener {
  private var tasks, runMs, bytesRead, recordsRead = 0L
  private var shuffleWriteBytes, shuffleReadBytes, shuffleRecords, stages = 0L

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) {
      tasks += 1
      runMs += m.executorRunTime
      bytesRead += m.inputMetrics.bytesRead
      recordsRead += m.inputMetrics.recordsRead
      shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
      shuffleRecords += m.shuffleWriteMetrics.recordsWritten
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized { stages += 1 }

  private def snapshot(): Vector[Long] = synchronized {
    Vector(tasks, runMs, bytesRead, recordsRead, shuffleWriteBytes, shuffleReadBytes,
      shuffleRecords, stages)
  }

  /** Run `body` and record the Spark work it caused as counters of the
    * current traced operation.
    */
  def measure[A](body: => A): A = {
    ListenerBusDrain.drain(spark.sparkContext)
    val before = snapshot()
    val r      = body
    ListenerBusDrain.drain(spark.sparkContext)
    val delta = snapshot().zip(before).map { case (a, b) => a - b }
    SparkTaskCounters.Names.zip(delta).foreach { case (n, v) => Trace.count(n, v) }
    r
  }
}

object SparkTaskCounters {
  val Names: Vector[String] = Vector("spark.tasks", "spark.task_run_ms", "spark.bytes_read",
    "spark.records_read", "spark.shuffle_write_bytes", "spark.shuffle_read_bytes",
    "spark.shuffle_records", "spark.stages")
}
