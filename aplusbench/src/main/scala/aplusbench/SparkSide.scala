package aplusbench

import java.io.File
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.util.QueryExecutionListener
import org.apache.spark.storage.StorageLevel

/** The benchmark's own Spark session. Every setting that decides the
  * generated data, the plans or the cost of an action is pinned here and
  * recorded with each run. The generated graph depends on the number of
  * leaf partitions (each partition draws its own random stream), so that
  * count is fixed rather than left to the machine's core count. */
object BenchSession {
  val Cores = 4
  /** Partitions of every materialized A+ index. */
  val IndexPartitions = 4

  def settings(localDir: File): Seq[(String, String)] = Seq(
    "spark.master"                                -> s"local[$Cores]",
    "spark.default.parallelism"                   -> Cores.toString,
    "spark.sql.leafNodeDefaultParallelism"        -> Cores.toString,
    "spark.sql.shuffle.partitions"                -> Cores.toString,
    // Small cached batches, so partition/sort filters on cached indexes can
    // skip batches at the benchmark's graph sizes.
    "spark.sql.inMemoryColumnarStorage.batchSize" -> "512",
    "spark.sql.autoBroadcastJoinThreshold"        -> "-1",
    // Static plans: the executed plan is the one compiled, and its scan
    // metrics can be read after the action.
    "spark.sql.adaptive.enabled"                  -> "false",
    // Whole-stage code generation compiles fresh Java for every query; at
    // these sizes that compile time, not the index access, dominated each
    // query (measured about 2x slower per query with it on).
    "spark.sql.codegen.wholeStage"                -> "false",
    "spark.ui.enabled"                            -> "false",
    "spark.driver.host"                           -> "127.0.0.1",
    "spark.local.dir"                             -> localDir.getAbsolutePath,
    "spark.sql.warehouse.dir"                     -> new File(localDir, "warehouse").getAbsolutePath,
  )

  def start(localDir: File): SparkSession = {
    val b = SparkSession.builder().appName("aplusbench")
    settings(localDir).foreach { case (k, v) => b.config(k, v) }
    b.getOrCreate()
  }

  /** Time of a trivial action on a cached one-row DataFrame: the fixed cost
    * every query's `count()` pays. Median of `n` samples. */
  def floorSeconds(spark: SparkSession, n: Int): Double = {
    val one = spark.range(1).toDF().persist(StorageLevel.MEMORY_ONLY)
    one.count()
    val xs = (1 to n).map { _ =>
      val t0 = System.nanoTime(); one.count(); (System.nanoTime() - t0) / 1e9
    }
    one.unpersist(true)
    Stats.median(xs)
  }

  /** Bytes of cached RDD blocks Spark holds in memory. */
  def cacheBytes(spark: SparkSession): Long =
    spark.sparkContext.getRDDStorageInfo.map(_.memSize).sum
}

/** Job, stage and task counts of the actions run while tracing, plus the
  * rows produced by the in-memory scans of each executed plan. Registered
  * only for traced runs. */
final class ExecProbe(spark: SparkSession) extends SparkListener with QueryExecutionListener {
  @volatile var jobs, stages, tasks = 0L
  @volatile var busyMs, fetchWaitMs, shuffleBytes = 0L
  @volatile var scanRows = 0L

  override def onJobEnd(e: SparkListenerJobEnd): Unit = jobs += 1
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages += 1
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      busyMs += m.executorRunTime
      fetchWaitMs += m.shuffleReadMetrics.fetchWaitTime
      shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
    scanRows += qe.executedPlan.collect { case s: InMemoryTableScanExec =>
      s.metrics.get("numOutputRows").map(_.value).getOrElse(0L)
    }.sum
  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()

  def register(): this.type = {
    spark.sparkContext.addSparkListener(this)
    spark.listenerManager.register(this)
    this
  }

  /** Current totals once every event of the actions run so far arrived. */
  def snapshot(): Seq[Long] = {
    ListenerBusDrain(spark.sparkContext)
    Seq(jobs, stages, tasks, busyMs, fetchWaitMs, shuffleBytes, scanRows)
  }
}
