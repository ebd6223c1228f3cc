package repro.perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.apache.spark.storage.StorageLevel

import repro.exchange.{ExchangeAlgo, ExchangeModel, ExchangeResult, MemS3, ServerlessExchange, SparkExchange}

/** The benchmark's own reference for where exchanged records belong: per
  * hash partition `floorMod(key, p)`, the number of records and an
  * order-independent checksum of them. A worker is correct when every record
  * it holds hashes to it and its count and checksum match, which checks
  * placement and the record multiset in one linear pass.
  */
final case class Placement(counts: Array[Long], checksums: Array[Long])

object Placement {
  def expected(input: Vector[Array[Long]], p: Int): Placement = {
    val out = Placement(new Array[Long](p), new Array[Long](p))
    input.foreach(_.foreach { k =>
      val w = Math.floorMod(k, p.toLong).toInt
      out.counts(w) += 1; out.checksums(w) += mix(k)
    })
    out
  }

  /** Whether worker `w` holds exactly its partition's records. */
  def holds(exp: Placement, w: Int, got: Array[Long]): Boolean = {
    val p = exp.counts.length.toLong
    var sum = 0L
    var i = 0
    var placed = true
    while (i < got.length) {
      val k = got(i)
      if (Math.floorMod(k, p) != w) placed = false
      sum += mix(k); i += 1
    }
    placed && got.length == exp.counts(w) && sum == exp.checksums(w)
  }

  /** Order-independent 64-bit checksum of a key multiset (splitmix64 sum). */
  def mix(k: Long): Long = {
    var z = k + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  def checkServerless(r: ExchangeResult, s3: MemS3, algo: ExchangeAlgo, p: Int,
                      expected: Placement): Seq[String] = {
    val placement =
      if (r.data.size != p) Seq(s"${r.data.size} workers returned, expected $p")
      else {
        val wrong = (0 until p).count(w => !holds(expected, w, r.data(w)))
        if (wrong == 0) Nil else Seq(s"$wrong of $p workers hold the wrong records")
      }
    val want = (ExchangeModel.reads(algo, p), ExchangeModel.writes(algo, p), ExchangeModel.lists(algo, p))
    val got  = (s3.getCount.get, s3.putCount.get, s3.listCount.get)
    val requests =
      if (got == want) Nil else Seq(s"${algo.label} P=$p requests (get, put, list) $got, closed form $want")
    placement ++ requests
  }
}

/** `ServerlessExchange.run` over a fresh `MemS3`, one operation per variant,
  * plus optionally `SparkExchange.twoLevel` over the same keys.
  *
  * `exchange-fleet` (P = 4096, 16 records per worker; 1l-wc at P = 1024)
  * is dominated by per-request cost: object naming and parsing, PUT/GET and
  * LIST, which scans and sorts the whole bucket. `exchange-bulk` (P = 64,
  * 16,384 records per worker, all six variants and the Spark exchange) is
  * dominated by per-record routing and allocation and issues few requests.
  */
final class ExchangeWorkload(val name: String, spark: Option[SparkSession], seed: Long,
                             p: Int, perWorker: Int, variants: Seq[(ExchangeAlgo, Int)],
                             serverlessReps: Int) extends Workload {

  private var inputs: Map[Int, Vector[Array[Long]]]   = Map.empty
  private var expected: Map[Int, Placement]          = Map.empty
  private var keysDf: DataFrame = _
  private var keyChecksum = 0L

  def settings: Seq[(String, String)] = Seq(
    "P" -> p.toString, "records_per_worker" -> perWorker.toString,
    "variants" -> variants.map { case (a, vp) => s"${a.label}@P=$vp" }.mkString(","),
    "serverless_reps_per_cycle" -> serverlessReps.toString,
    "spark_exchange" -> spark.isDefined.toString)

  def setUp(): Map[String, Double] = {
    val t0  = System.nanoTime()
    val rng = new java.util.SplittableRandom(seed)
    val full = Vector.fill(p)(Array.fill(perWorker)(rng.nextLong()))
    val genMs = (System.nanoTime() - t0) / 1e6
    inputs   = variants.map(_._2).distinct.map(vp => vp -> full.take(vp)).toMap
    expected = inputs.map { case (vp, in) => vp -> Placement.expected(in, vp) }
    keyChecksum = full.iterator.flatMap(_.iterator).map(Placement.mix).sum
    spark.foreach { s =>
      if (keysDf != null) keysDf.unpersist(blocking = true)
      val rows = s.sparkContext.parallelize(full.map(_.toSeq), p).flatMap(_.map(k => Row(k)))
      keysDf = s.createDataFrame(rows, StructType(Seq(StructField("k", LongType))))
        .persist(StorageLevel.MEMORY_ONLY)
      keysDf.count()
    }
    Map("exchange.input_gen_ms" -> genMs)
  }

  private def metricOf(a: ExchangeAlgo): String =
    s"exchange_${a.levels}l${if (a.writeCombining) "_wc" else ""}_ms"

  private def serverless(algo: ExchangeAlgo, vp: Int): Op = Op(metricOf(algo)) {
    val input = inputs(vp)
    val s3    = new MemS3
    val a0    = if (Trace.enabled) Trace.threadAllocatedBytes() else 0L
    val r     = Trace.span("exchange.run")(
      ServerlessExchange.run(input, algo.levels, algo.writeCombining, s3 = s3))
    if (Trace.enabled) {
      Trace.count("exchange.alloc_bytes", Trace.threadAllocatedBytes() - a0)
      Trace.count("exchange.record_rounds", vp.toLong * perWorker * algo.levels)
      Trace.count("mems3.gets", s3.getCount.get)
      Trace.count("mems3.puts", s3.putCount.get)
      Trace.count("mems3.lists", s3.listCount.get)
      Trace.count("mems3.objects", s3.objectCount)
    }
    (r, s3)
  }(r => Placement.checkServerless(r._1, r._2, algo, vp, expected(vp)),
    r => Map("gets" -> r._2.getCount.get, "puts" -> r._2.putCount.get,
      "lists" -> r._2.listCount.get, "objects" -> r._2.objectCount))

  /** Forces the Spark exchange with one action that also returns, per
    * partition, (rows, rows not on their hash partition, key checksum).
    */
  private def sparkExchange(s: SparkSession): Op = Op("spark_exchange_ms") {
    val out = Trace.span("sparkexchange.twoLevel")(SparkExchange.twoLevel(keysDf, p))
    val np  = p
    Trace.span("spark.action")(out.rdd.mapPartitionsWithIndex { (pid, it) =>
      var rows, misplaced, sum = 0L
      it.foreach { row =>
        val k = row.getLong(0)
        rows += 1
        if (Math.floorMod(k, np.toLong) != pid) misplaced += 1
        sum += Placement.mix(k)
      }
      Iterator.single((rows, misplaced, sum))
    }.collect())
  }(parts => {
    val rows      = parts.map(_._1).sum
    val misplaced = parts.map(_._2).sum
    val sum       = parts.map(_._3).sum
    val n         = p.toLong * perWorker
    Seq(
      Option.when(parts.length != p)(s"Spark exchange has ${parts.length} partitions, expected $p"),
      Option.when(rows != n)(s"Spark exchange returned $rows rows, expected $n"),
      Option.when(misplaced != 0)(s"Spark exchange misplaced $misplaced rows"),
      Option.when(sum != keyChecksum)("Spark exchange changed the key multiset"),
    ).flatten
  }, parts => Map("rows" -> parts.map(_._1).sum))

  private val serverlessOps = variants.map { case (a, vp) => serverless(a, vp) }

  val cycle: Seq[Op] =
    Seq.fill(serverlessReps)(serverlessOps).flatten ++ spark.map(sparkExchange).toSeq

  override def derived(c: Map[String, Long], spans: Map[String, Long]): Map[String, Double] = {
    val runNs    = spans.getOrElse("exchange.run", 0L).toDouble
    val requests  = Seq("mems3.gets", "mems3.puts", "mems3.lists").map(c.getOrElse(_, 0L)).sum.toDouble
    val recRounds = c.getOrElse("exchange.record_rounds", 0L).toDouble
    Map(
      "exchange.ns_per_request"              -> Main.ratio(runNs, requests),
      "exchange.ns_per_record_round"         -> Main.ratio(runNs, recRounds),
      "exchange.alloc_bytes_per_record_round" -> Main.ratio(c.getOrElse("exchange.alloc_bytes", 0L).toDouble, recRounds),
    )
  }

  override def tearDown(): Unit = if (keysDf != null) keysDf.unpersist(blocking = true)
}

object ExchangeWorkload {
  private def algo(levels: Int, wc: Boolean) = ExchangeAlgo(levels, wc)

  def fleet(seed: Long): ExchangeWorkload =
    new ExchangeWorkload("exchange-fleet", None, seed, p = 4096, perWorker = 16, variants = Seq(
      algo(1, wc = true) -> 1024, algo(2, wc = false) -> 4096, algo(2, wc = true) -> 4096,
      algo(3, wc = false) -> 4096, algo(3, wc = true) -> 4096), serverlessReps = 1)

  def bulk(spark: SparkSession, seed: Long): ExchangeWorkload =
    new ExchangeWorkload("exchange-bulk", Some(spark), seed, p = 64, perWorker = 16384,
      variants = ExchangeModel.Algorithms.map(_ -> 64), serverlessReps = 4)
}
