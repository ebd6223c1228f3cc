package repro.perfbench

import java.io.File
import java.sql.{Connection, DriverManager}

import org.apache.spark.sql.{DataFrame, Row, SparkSession}

import repro.{Oracle, SynthData}
import repro.coldstore.ColdStore
import repro.core.Queries

/** Q1's expected answer for one (returnflag, linestatus) group. */
final case class Q1Group(flag: String, status: String, sums: Vector[java.math.BigDecimal],
                         avgs: Vector[Double], count: Long)

/** Reference answers for one cold store, computed by DuckDB's own Parquet
  * reader over the store's files. The SQL is the benchmark's, not the
  * program's, so a change to `Queries` cannot change the reference.
  */
final case class References(q1: Vector[Q1Group], q6Revenue: java.math.BigDecimal,
                            q6Rows: Long, totalRows: Long)

object References {
  private val Q6Where =
    """l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
      |  AND l_discount BETWEEN CAST(0.05 AS DOUBLE) AND CAST(0.07 AS DOUBLE)
      |  AND l_quantity < 24""".stripMargin

  def compute(dir: String): References = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      val src = s"read_parquet('$dir/*.parquet')"
      val q1 = rows(conn,
        s"""SELECT l_returnflag, l_linestatus,
           |  sum(CAST(l_quantity AS DECIMAL(18,6))),
           |  sum(CAST(l_extendedprice AS DECIMAL(12,2))),
           |  sum(CAST(l_extendedprice AS DECIMAL(12,2)) * (1 - CAST(l_discount AS DECIMAL(4,2)))),
           |  sum(CAST(l_extendedprice AS DECIMAL(12,2)) * (1 - CAST(l_discount AS DECIMAL(4,2)))
           |      * (1 + CAST(l_tax AS DECIMAL(4,2)))),
           |  round(avg(l_quantity), 4), round(avg(l_extendedprice), 4), round(avg(l_discount), 4),
           |  count(*)
           |FROM $src WHERE l_shipdate <= DATE '1998-09-02'
           |GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus""".stripMargin
      ) { rs =>
        Q1Group(rs.getString(1), rs.getString(2), (3 to 6).map(rs.getBigDecimal).toVector,
          (7 to 9).map(rs.getDouble).toVector, rs.getLong(10))
      }
      val (revenue, q6Rows) = rows(conn,
        s"""SELECT sum(CAST(l_extendedprice AS DECIMAL(12,2)) * CAST(l_discount AS DECIMAL(4,2))),
           |  count(*) FROM $src WHERE $Q6Where""".stripMargin
      )(rs => (rs.getBigDecimal(1), rs.getLong(2))).head
      val total = rows(conn, s"SELECT count(*) FROM $src")(_.getLong(1)).head
      References(q1, revenue, q6Rows, total)
    } finally conn.close()
  }

  private def rows[A](conn: Connection, sql: String)(f: java.sql.ResultSet => A): Vector[A] = {
    val rs = conn.createStatement.executeQuery(sql)
    try Iterator.continually(rs).takeWhile(_.next()).map(f).toVector
    finally rs.close()
  }

  /** DECIMAL sums must match exactly; averages are rounded to 4 decimals by
    * both engines from float sums taken in different orders, so they may
    * differ by one unit in the 4th decimal and no more.
    */
  def checkQ1(got: Array[Row], exp: Vector[Q1Group]): Seq[String] =
    if (got.length != exp.size) Seq(s"Q1 has ${got.length} groups, reference ${exp.size}")
    else got.toSeq.zip(exp).flatMap { case (r, e) =>
      val key = s"${e.flag}/${e.status}"
      val keyOk = r.getString(0) == e.flag && r.getString(1) == e.status
      val sums = (2 to 5).map(r.getDecimal)
      val avgs = (6 to 8).map(r.getDouble)
      Seq(
        Option.when(!keyOk)(s"Q1 group ${r.getString(0)}/${r.getString(1)} where $key expected"),
        Option.when(sums.zip(e.sums).exists { case (a, b) => a == null || a.compareTo(b) != 0 })(
          s"Q1 $key sums $sums != ${e.sums}"),
        Option.when(avgs.zip(e.avgs).exists { case (a, b) => math.abs(a - b) > 1.0001e-4 })(
          s"Q1 $key averages $avgs != ${e.avgs}"),
        Option.when(r.getLong(9) != e.count)(s"Q1 $key count ${r.getLong(9)} != ${e.count}"),
      ).flatten
    }

  def checkQ6(got: Array[Row], exp: java.math.BigDecimal): Seq[String] =
    if (got.length != 1) Seq(s"Q6 returned ${got.length} rows")
    else {
      val v = got(0).getDecimal(0)
      if (v != null && v.compareTo(exp) == 0) Nil else Seq(s"Q6 revenue $v != $exp")
    }
}

/** TPC-H Q1 and Q6 over a lineitem cold store, through the pruned scan.
  *
  * `verified = false` is the `cold-query` workload: the store is large
  * enough that the footer catalog, the pruning and the Spark scan do the
  * work, and each answer is compared with the DuckDB reference outside the
  * timed region. `verified = true` is the `verified-query` workload: a small
  * store where the timed operation also runs `Oracle.assertEquivalent`
  * against the full table, as the test suite does.
  */
final class QueryWorkload(val name: String, spark: SparkSession, workDir: File, seed: Long,
                          sf: Double, nFiles: Int, verified: Boolean) extends Workload {
  private val Q1Window = ("1992-01-01", "1998-09-02")
  private val Q6Window = ("1994-01-01", "1995-01-01")

  private var round = 0
  private var dir: String = _
  private var refs: References = _

  def settings: Seq[(String, String)] =
    Seq("scale_factor" -> sf.toString, "files" -> nFiles.toString)

  def setUp(): Map[String, Double] = {
    val previous = Option(dir)
    round += 1
    val next = new File(workDir, s"store-$round/lineitem").getAbsolutePath
    val t0 = System.nanoTime()
    ColdStore.write(SynthData.lineitem(spark, sf, seed), next, nFiles)
    val writeMs = (System.nanoTime() - t0) / 1e6
    refs = References.compute(next)
    dir = next
    previous.foreach(p => Main.deleteRecursively(new File(p).getParentFile))
    Map("coldstore.write_ms" -> writeMs)
  }

  private def prunedScan(window: (String, String)): (DataFrame, ColdStore.PruneStats) = {
    val r = Trace.span("coldstore.prunedScan")(ColdStore.prunedScan(spark, dir, window._1, window._2))
    Trace.count("coldstore.files_scanned", r._2.survivingFiles)
    Trace.count("coldstore.files_total", r._2.totalFiles)
    r
  }

  private def pruneCounts(p: ColdStore.PruneStats): Map[String, Long] =
    Map("files_scanned" -> p.survivingFiles.toLong, "files_total" -> p.totalFiles.toLong)

  private def catalogProbe(): Unit = Trace.span("coldstore.catalog")(ColdStore.catalog(dir))

  private def tableProbe(): Unit =
    Trace.span("spark.tableCollect")(spark.read.parquet(dir).collect())

  private def q1Matching: Long = refs.q1.map(_.count).sum

  private val coldQ1 = Op("query_q1_ms") {
    val (df, prune) = prunedScan(Q1Window)
    Trace.count("queries.matching_rows", q1Matching)
    (Trace.span("queries.collect")(Queries.q1(df).collect()), prune)
  }(r => References.checkQ1(r._1, refs.q1), r => pruneCounts(r._2), () => catalogProbe())

  private val coldQ6 = Op("query_q6_ms") {
    val (df, prune) = prunedScan(Q6Window)
    Trace.count("queries.matching_rows", refs.q6Rows)
    (Trace.span("queries.collect")(Queries.q6(df).collect()), prune)
  }(r => References.checkQ6(r._1, refs.q6Revenue), r => pruneCounts(r._2), () => catalogProbe())

  private def oracle(query: DataFrame, sql: String): Unit = {
    Trace.count("oracle.rows_loaded", refs.totalRows)
    Trace.span("oracle.assertEquivalent")(
      Oracle.assertEquivalent(query, sql, "lineitem" -> spark.read.parquet(dir)))
  }

  // The oracle collects the query inside itself; the benchmark's own check
  // collects it once more, outside the timed region.
  private val verifiedQ6 = Op("query_q6_ms") {
    val (df, prune) = prunedScan(Q6Window)
    Trace.count("queries.matching_rows", refs.q6Rows)
    oracle(Queries.q6(df), Queries.q6DuckSql)
    (df, prune)
  }(r => References.checkQ6(Queries.q6(r._1).collect(), refs.q6Revenue),
    r => pruneCounts(r._2), () => tableProbe())

  private val verifiedQ1 = Op("query_q1_ms") {
    val (df, prune) = prunedScan(Q1Window)
    Trace.count("queries.matching_rows", q1Matching)
    oracle(Queries.q1(df), Queries.q1DuckSql)
    (df, prune)
  }(r => References.checkQ1(Queries.q1(r._1).collect(), refs.q1),
    r => pruneCounts(r._2), () => tableProbe())

  val cycle: Seq[Op] = if (verified) Seq(verifiedQ6, verifiedQ1) else Seq(coldQ1, coldQ6)

  // Q1's generated aggregation code over 600k rows keeps getting faster
  // for its first few runs as the JIT compiles it; the oracle-bound
  // verified queries level off after one.
  override def warmUpCycles: Int = if (verified) 1 else 3

  override def derived(c: Map[String, Long], spans: Map[String, Long]): Map[String, Double] =
    Map("spark.rows_read_per_matching_row" ->
      Main.ratio(c.getOrElse("spark.records_read", 0L).toDouble,
        c.getOrElse("queries.matching_rows", 0L).toDouble))
}
