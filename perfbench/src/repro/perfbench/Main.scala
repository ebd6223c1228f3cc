package repro.perfbench

import java.io.File
import java.lang.management.ManagementFactory

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

/** Entry point of the benchmark. See `perfbench/README.md`.
  *
  * {{{
  * Main --workload <cold-query|exchange-fleet|exchange-bulk|verified-query>
  *      --seed <n> --seconds <n> --trace <0|1> --out <dir>
  * }}}
  *
  * Prints the run's settings, every operation's latency (median, tail
  * percentile, sample count) and every metric by name with its unit; the
  * last line of standard output is the JSON result.
  */
object Main {
  /** Set-up is repeated this many times per run and its median reported. */
  val SetupRounds = 3

  val Workloads: Seq[String] = Seq("cold-query", "exchange-fleet", "exchange-bulk", "verified-query")

  /** End-to-end metrics (untraced run) with their units. */
  val EndToEnd: Seq[(String, String)] =
    Seq("latency_ms" -> "ms", "setup_s" -> "s", "live_heap_mb" -> "MB")

  /** Operation latencies, reported by name in every run and as per-layer
    * values in the traced run.
    */
  val OpMetrics: Seq[String] = Seq("query_q1_ms", "query_q6_ms", "exchange_1l_ms",
    "exchange_1l_wc_ms", "exchange_2l_ms", "exchange_2l_wc_ms", "exchange_3l_ms",
    "exchange_3l_wc_ms", "spark_exchange_ms")

  /** Per-layer metrics (traced run) with their units. Times come from spans
    * and counts from counters, both summed over one cycle and reported as
    * the median over the traced cycles; set-up phases are medians over the
    * set-up rounds.
    */
  val PerLayer: Seq[(String, String)] = OpMetrics.map(_ -> "ms") ++ Seq(
    "coldstore.pruned_scan_ms" -> "ms", "coldstore.catalog_ms" -> "ms",
    "coldstore.files_scanned" -> "count", "coldstore.files_total" -> "count",
    "queries.collect_ms" -> "ms", "spark.tasks" -> "count", "spark.task_run_ms" -> "ms",
    "spark.bytes_read" -> "bytes", "spark.records_read" -> "count",
    "spark.rows_read_per_matching_row" -> "ratio",
    "mems3.gets" -> "count", "mems3.puts" -> "count", "mems3.lists" -> "count",
    "mems3.objects" -> "count", "exchange.ns_per_request" -> "ns",
    "exchange.ns_per_record_round" -> "ns", "exchange.alloc_bytes_per_record_round" -> "bytes",
    "spark.shuffle_write_bytes" -> "bytes", "spark.shuffle_read_bytes" -> "bytes",
    "spark.shuffle_records" -> "count", "spark.stages" -> "count",
    "oracle.assert_ms" -> "ms", "oracle.rows_loaded" -> "count", "spark.table_collect_ms" -> "ms",
    "coldstore.write_ms" -> "ms", "exchange.input_gen_ms" -> "ms", "jvm.gc_ms" -> "ms",
    "trace.overhead_pct" -> "%")

  /** Per-layer time metrics and the span each one sums. */
  private val SpanMetrics: Seq[(String, String)] = Seq(
    "coldstore.pruned_scan_ms" -> "coldstore.prunedScan", "coldstore.catalog_ms" -> "coldstore.catalog",
    "queries.collect_ms" -> "queries.collect", "oracle.assert_ms" -> "oracle.assertEquivalent",
    "spark.table_collect_ms" -> "spark.tableCollect")

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, out: File)

  def parseArgs(args: Array[String]): Args = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, usage(s"missing --$k"))
    val a = Args(need("workload"), need("seed").toLong, need("seconds").toInt,
      need("trace") match { case "0" => false; case "1" => true; case t => usage(s"bad --trace $t") },
      new File(need("out")))
    if (!Workloads.contains(a.workload)) usage(s"unknown workload ${a.workload}")
    if (a.seconds < 1) usage("--seconds must be at least 1")
    a
  }

  private def usage(msg: String): Nothing = {
    System.err.println(s"$msg\nusage: Main --workload <${Workloads.mkString("|")}> " +
      "--seed <n> --seconds <n> --trace <0|1> --out <dir>")
    sys.exit(2)
  }

  def seconds(body: => Unit): Double = {
    val t0 = System.nanoTime(); body; (System.nanoTime() - t0) / 1e9
  }

  /** Heap in use after full collections. Spark's context cleaner frees
    * shuffle and broadcast state asynchronously once a collection has found
    * it unreachable, so collect again until the figure stops falling.
    */
  private def liveHeapMegabytes(): Double = {
    def collect(): Double = {
      System.gc(); System.runFinalization(); System.gc()
      ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
    }
    var previous = Double.MaxValue
    var current  = collect()
    var rounds   = 1
    while (rounds < 8 && current < previous * 0.995) {
      Thread.sleep(250) // let the cleaner thread drain its reference queue
      previous = current; current = collect(); rounds += 1
    }
    current
  }

  def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  def deleteRecursively(f: File): Unit = {
    Option(f.listFiles).foreach(_.foreach(deleteRecursively))
    f.delete()
  }

  private def startSpark(localDir: File): SparkSession = {
    val s = SparkSession.builder()
      .master("local[*]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", localDir.getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(localDir, "warehouse").getAbsolutePath)
      // Cap Spark's in-memory history of finished jobs and queries, so the
      // live heap measured at the end does not grow with the number of
      // operations a run happened to complete.
      .config("spark.ui.retainedJobs", "10")
      .config("spark.ui.retainedStages", "10")
      .config("spark.sql.ui.retainedExecutions", "10")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv)
    val work = new File(args.out, s"work-${args.workload}-${ProcessHandle.current.pid}")
    work.mkdirs()
    val exit = try run(args, work) finally deleteRecursively(work)
    sys.exit(exit)
  }

  private def run(args: Args, work: File): Int = {
    val needsSpark = args.workload != "exchange-fleet"
    var spark: Option[SparkSession] = None
    val sessionSec = seconds { spark = if (needsSpark) Some(startSpark(new File(work, "spark"))) else None }
    try {
      val w: Workload = args.workload match {
        case "cold-query"     => new QueryWorkload("cold-query", spark.get, work, args.seed,
                                   sf = 0.1, nFiles = 32, verified = false)
        case "verified-query" => new QueryWorkload("verified-query", spark.get, work, args.seed,
                                   sf = 0.0005, nFiles = 8, verified = true)
        case "exchange-fleet" => ExchangeWorkload.fleet(args.seed)
        case "exchange-bulk"  => ExchangeWorkload.bulk(spark.get, args.seed)
      }
      val counters = if (args.trace) spark.map(new SparkTaskCounters(_)) else None
      counters.foreach(c => spark.get.sparkContext.addSparkListener(c))
      val runner = new Runner(w, counters)

      // Set-up: inputs, store and references several times (median), then
      // one warm-up call of each operation type, not recorded.
      val phases  = mutable.ArrayBuffer.empty[Map[String, Double]]
      val prepSec = (1 to SetupRounds).map(_ => seconds(phases += w.setUp()))
      val warmSec = seconds(runner.warmUp())
      val setupSec = sessionSec + Stats.median(prepSec) + warmSec

      val t0 = System.nanoTime()
      val cycles = runner.loop(args.seconds, args.trace)
      val loopSec = (System.nanoTime() - t0) / 1e9
      val liveHeapMb = liveHeapMegabytes()
      w.tearDown()

      val log = runner.log
      val drift = CountHistory.compare(new File(args.out, "counts"), args.workload, args.seed,
        w.settings, log.counts.toMap)

      // ---- report ---------------------------------------------------------
      val settings = Seq(
        "workload" -> args.workload, "seed" -> args.seed.toString, "seconds" -> args.seconds.toString,
        "trace" -> (if (args.trace) "1" else "0"), "nproc" -> Runtime.getRuntime.availableProcessors.toString,
        "spark_master" -> spark.map(_.sparkContext.master).getOrElse("(none)"),
        "driver_heap_mb" -> (Runtime.getRuntime.maxMemory / (1024 * 1024)).toString,
        "jdk" -> s"${System.getProperty("java.vendor")} ${System.getProperty("java.version")}",
        "setup_rounds" -> SetupRounds.toString) ++ w.settings
      settings.foreach { case (k, v) => println(s"setting $k = $v") }
      println(f"setup: spark session $sessionSec%.3f s + median of preparation rounds " +
        prepSec.map(x => f"$x%.3f").mkString("[", ", ", "]") + f" s + warm-up $warmSec%.3f s")
      println(f"closed loop: 1 client, $cycles cycles in $loopSec%.2f s" +
        (if (args.trace) " (odd cycles traced)" else ""))
      for ((op, xs) <- log.samples) {
        val (tl, tv) = Stats.tail(xs.toSeq)
        println(f"op $op%-20s median ${Stats.median(xs.toSeq)}%10.3f ms  $tl ${tv}%10.3f ms  n=${xs.size}")
        println(s"samples $op ${xs.map(x => f"$x%.1f").mkString(" ")}")
      }
      println(f"fail_ratio = ${ratio(log.failed.toDouble, log.attempted.toDouble)}%.6f " +
        s"(${log.failed} failed of ${log.attempted} attempted)")
      log.errors.foreach(e => System.err.println(s"FAILED $e"))
      drift.foreach(d => System.err.println(s"DRIFT $d"))

      val opMedians = log.samples.map { case (k, xs) => k -> Stats.median(xs.toSeq) }.toMap
      val metrics: Seq[(String, Double, String)] =
        if (!args.trace) {
          val values = Map(
            "latency_ms"   -> Stats.geomean(w.cycle.map(_.metric).distinct.map(opMedians.getOrElse(_, 0.0))),
            "setup_s"      -> setupSec,
            "live_heap_mb" -> liveHeapMb)
          EndToEnd.map { case (k, u) => (k, values(k), u) }
        } else {
          val values = layerMetrics(w, log, phases.toSeq, opMedians)
          Trace.writeJsonLines(new File(args.out, s"trace-${args.workload}-seed${args.seed}.jsonl"))
          val self = Trace.selfTimes
          self.toSeq.sortBy(-_._2).foreach { case (n, ns) =>
            println(f"self time $n%-26s ${ns / 1e6}%12.3f ms over the traced cycles")
          }
          PerLayer.map { case (k, u) => (k, values.getOrElse(k, 0.0), u) }
        }
      metrics.foreach { case (k, v, u) => println(s"metric $k = $v $u") }
      println(Json.result(log.failed == 0 && drift.isEmpty, log.attempted, log.failed, metrics))
      0
    } finally spark.foreach(_.stop())
  }

  private def layerMetrics(w: Workload, log: RunLog, phases: Seq[Map[String, Double]],
                           opMedians: Map[String, Double]): Map[String, Double] = {
    val cycles = log.tracedCycles.toSeq
    def med(f: ((Map[String, Long], Map[String, Long])) => Double): Double =
      if (cycles.isEmpty) 0.0 else Stats.median(cycles.map(f))
    val counters = cycles.flatMap(_._1.keys).distinct.map(k => k -> med(_._1.getOrElse(k, 0L).toDouble))
    val spans = SpanMetrics.map { case (m, span) => m -> med(_._2.getOrElse(span, 0L) / 1e6) }
    val perCycle = cycles.map { case (c, sp) => w.derived(c, sp) }
    val derived  = perCycle.flatMap(_.keys).distinct.map(k => k -> Stats.median(perCycle.map(_.getOrElse(k, 0.0))))
    val setup = phases.flatMap(_.keys).distinct.map(k => k -> Stats.median(phases.map(_.getOrElse(k, 0.0))))
    val tracedMedians = log.traced.map { case (k, xs) => k -> Stats.median(xs.toSeq) }
    val untraced = Stats.geomean(w.cycle.map(_.metric).distinct.map(opMedians.getOrElse(_, 0.0)))
    val traced   = Stats.geomean(w.cycle.map(_.metric).distinct.map(tracedMedians.getOrElse(_, 0.0)))
    val overhead = Seq("trace.overhead_pct" -> 100.0 * ratio(traced - untraced, untraced))
    (opMedians.toSeq ++ counters ++ spans ++ derived ++ setup ++ overhead).toMap
  }
}

/** Counts that must repeat exactly for a seed, kept across runs in the
  * benchmark's output directory. Any difference from an earlier run of the
  * same workload and seed is a failure, not noise.
  */
object CountHistory {
  def compare(dir: File, workload: String, seed: Long, settings: Seq[(String, String)],
              counts: Map[String, Long]): Seq[String] = {
    dir.mkdirs()
    val key  = Integer.toHexString(settings.map { case (k, v) => s"$k=$v" }.mkString(",").hashCode)
    val file = new File(dir, s"$workload-seed$seed-$key.txt")
    val previous: Map[String, Long] =
      if (!file.exists) Map.empty
      else {
        val src = scala.io.Source.fromFile(file, "UTF-8")
        try src.getLines().map(_.split('=')).collect { case Array(k, v) => k -> v.toLong }.toMap
        finally src.close()
      }
    val drift = counts.toSeq.sortBy(_._1).collect {
      case (k, v) if previous.get(k).exists(_ != v) =>
        s"count $k = $v, an earlier run of seed $seed had ${previous(k)}"
    }
    val merged = previous ++ counts
    val out = new java.io.PrintWriter(file, "UTF-8")
    try merged.toSeq.sortBy(_._1).foreach { case (k, v) => out.println(s"$k=$v") } finally out.close()
    drift
  }
}

object Json {
  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "0" else java.math.BigDecimal.valueOf(v).toPlainString

  def result(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (k, v, u) => s""""$k": {"value": ${num(v)}, "unit": "$u"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
