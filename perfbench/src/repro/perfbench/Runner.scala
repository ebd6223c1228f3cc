package repro.perfbench

import scala.collection.mutable

/** One operation type of a workload. `run` is the timed call; `check`
  * compares its result with an independent reference and returns the
  * mismatches; `counts` are the values that must repeat exactly for a
  * given seed (files scanned, requests, objects). `probe` runs only in
  * traced cycles, after the operation and outside its timing, to time a
  * layer the operation calls internally.
  */
abstract class Op(val metric: String) {
  type R
  def run(): R
  def check(r: R): Seq[String]
  def counts(r: R): Map[String, Long] = Map.empty
  def probe(): Unit = ()
}

object Op {
  def apply[A](metric: String)(body: => A)(checkFn: A => Seq[String],
      countsFn: A => Map[String, Long] = (_: A) => Map.empty[String, Long],
      probeFn: () => Unit = () => ()): Op =
    new Op(metric) {
      type R = A
      def run(): A = body
      def check(r: A): Seq[String] = checkFn(r)
      override def counts(r: A): Map[String, Long] = countsFn(r)
      override def probe(): Unit = probeFn()
    }
}

/** A workload: set-up rounds that build its inputs and references, and a
  * cycle of operations the closed loop repeats.
  */
trait Workload {
  def name: String
  /** Settings printed with the result (scale factors, P, records per worker). */
  def settings: Seq[(String, String)]
  /** Build inputs and reference answers from the seed; returns phase times
    * in ms keyed by per-layer metric name.
    */
  def setUp(): Map[String, Double]
  def cycle: Seq[Op]
  /** Per-layer values derived from one traced cycle's counters. */
  def derived(cycleCounts: Map[String, Long], cycleSpanNs: Map[String, Long]): Map[String, Double] =
    Map.empty
  def tearDown(): Unit = ()
  /** Warm-up passes over the cycle's operation types before timing starts. */
  def warmUpCycles: Int = 1
}

/** Latency samples and failures of one run. */
final class RunLog {
  val samples   = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  val traced    = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  val errors    = mutable.ArrayBuffer.empty[String]
  var attempted = 0L
  var failed    = 0L
  /** First value seen of each count; any later different value is drift. */
  val counts    = mutable.LinkedHashMap.empty[String, Long]
  /** Per traced cycle: summed counters and span totals. */
  val tracedCycles = mutable.ArrayBuffer.empty[(Map[String, Long], Map[String, Long])]

  def fail(msg: String): Unit = { failed += 1; if (errors.size < 20) errors += msg }
}

/** Drives a workload as a closed loop: the single driver thread sends the
  * next operation only after the previous one has returned and been checked.
  */
final class Runner(w: Workload, sparkCounters: Option[SparkTaskCounters]) {
  val log = new RunLog

  /** Run one operation, time it, then (outside the timing) check it. Returns
    * the elapsed milliseconds, or None if it failed.
    */
  def runOp(op: Op, traced: Boolean): Option[Double] = {
    log.attempted += 1
    // Start every operation from a collected heap, so that the garbage an
    // earlier operation left behind is not collected on this one's time.
    System.gc()
    Trace.beginOp()
    val gc0 = Trace.gcMillis()
    val timed = () => {
      val t0 = System.nanoTime()
      val r  = Trace.span(op.metric)(op.run())
      (r, (System.nanoTime() - t0) / 1e6)
    }
    try {
      val (r, ms) = sparkCounters match {
        case Some(c) if traced => c.measure(timed())
        case _                 => timed()
      }
      Trace.count("jvm.gc_ms", Trace.gcMillis() - gc0)
      if (traced) op.probe()
      val problems = op.check(r) ++ checkCounts(op, op.counts(r))
      if (problems.isEmpty) Some(ms)
      else { log.fail(s"${op.metric}: ${problems.mkString("; ")}"); None }
    } catch {
      case e: Exception =>
        log.fail(s"${op.metric}: ${e.getClass.getSimpleName}: ${e.getMessage}"); None
    }
  }

  private def checkCounts(op: Op, cs: Map[String, Long]): Seq[String] =
    cs.toSeq.flatMap { case (k, v) =>
      val key = s"${op.metric}/$k"
      log.counts.get(key) match {
        case Some(prev) if prev != v => Seq(s"count $key drifted: $prev then $v")
        case Some(_)                 => Nil
        case None                    => log.counts(key) = v; Nil
      }
    }

  /** One pass over the cycle, recording its samples (and, when traced, its
    * counters and span totals).
    */
  def cycle(traced: Boolean): Unit = {
    Trace.enabled = traced
    val cycleCount = mutable.HashMap.empty[String, Long]
    val firstSpan  = Trace.all.size
    try w.cycle.foreach { op =>
      val ms = runOp(op, traced)
      Trace.opCounts.foreach { case (k, v) => cycleCount.update(k, cycleCount.getOrElse(k, 0L) + v) }
      ms.foreach { v =>
        val into = if (traced) log.traced else log.samples
        into.getOrElseUpdate(op.metric, mutable.ArrayBuffer.empty) += v
      }
    } finally Trace.enabled = false
    if (traced) {
      val spanNs = Trace.all.drop(firstSpan).groupMapReduce(_.name)(_.durationNs)(_ + _)
      log.tracedCycles += ((cycleCount.toMap, spanNs))
    }
  }

  /** Run each operation type of the cycle `warmUpCycles` times, checked but
    * not recorded.
    */
  def warmUp(): Unit =
    for (_ <- 1 to w.warmUpCycles; op <- w.cycle.distinct) runOp(op, traced = false)

  /** Repeat whole cycles until `seconds` have passed. In a traced run,
    * cycles alternate untraced and traced, so the untraced cycles give the
    * operation latencies and the tracing overhead is measured on the same
    * run.
    */
  def loop(seconds: Int, trace: Boolean): Int = {
    val deadline = System.nanoTime() + seconds * 1000000000L
    var n = 0
    while (n == 0 || System.nanoTime() < deadline || (trace && n < 2)) {
      cycle(traced = trace && n % 2 == 1)
      n += 1
    }
    n
  }
}

object Stats {
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty)
    val s   = xs.sorted
    val pos = q * (s.size - 1)
    val lo  = math.floor(pos).toInt
    val hi  = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Geometric mean; 0 if any value is 0 (an operation without samples). */
  def geomean(xs: Seq[Double]): Double =
    if (xs.isEmpty || xs.exists(_ <= 0)) 0.0 else math.exp(xs.map(math.log).sum / xs.size)

  /** The highest of p50, p90, p99, p99.9 that leaves at least ten samples
    * above it, as (label, value); p50 when fewer than 20 samples exist.
    */
  def tail(xs: Seq[Double]): (String, Double) = {
    val n = xs.size
    val qs = Seq(("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9))
    qs.find { case (_, q) => n - math.ceil(q * n) >= 10 }
      .map { case (l, q) => (l, quantile(xs, q)) }
      .getOrElse(("p50", median(xs)))
  }
}
