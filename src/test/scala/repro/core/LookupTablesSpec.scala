package repro.core

import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{classic, DataFrame}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, AdaptiveSparkPlanHelper}
import org.apache.spark.sql.execution.exchange.BroadcastExchangeExec
import repro.{SparkSpec, TestFixtures => F}
import repro.core.index.{Catalogue, MemoryModel}
import repro.core.plan.MultiExtendOp
import repro.core.query.QueryGraph
import repro.workloads.{IndexConfigs, MagicRecs, MoneyFlow, SubgraphQueries}

/** The lookup tables behind every index access and property-store read:
  * built once, probed by every query, and gone once their configuration or
  * graph is released. */
class LookupTablesSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  /** The physical plan `df` runs, final when adaptive execution is on. */
  private def executed(df: DataFrame): SparkPlan = df.queryExecution.executedPlan match {
    case a: AdaptiveSparkPlanExec => a.finalPhysicalPlan
    case p                        => p
  }

  test("no executed plan of a plan-golden pair broadcasts an exchange") {
    for ((q, name, cfg) <- PlanGoldenSpec.pairs) {
      val plan = executed(cfg().run(q).groupBy().count())
      assert(collect(plan) { case b: BroadcastExchangeExec => b }.isEmpty, s"${q.name} under $name:\n$plan")
    }
  }

  /** The result of `action` and the Spark jobs it runs. Job-start events
    * arrive in order, so once a marker job's start is seen, every earlier
    * one has arrived. */
  private def jobs[A](action: => A): (A, Int) = {
    val marker = "lookup-tables-spec-marker"
    val seen = new ConcurrentLinkedQueue[Option[String]]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        seen.add(Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description"))))
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      val result = action
      sc.setJobDescription(marker)
      try sc.parallelize(Seq(1), 1).count() finally sc.setJobDescription(null)
      val deadline = System.nanoTime() + 30e9.toLong
      while (!seen.asScala.exists(_.contains(marker)) && System.nanoTime() < deadline) Thread.sleep(5)
      assert(seen.asScala.exists(_.contains(marker)), "the marker job's start never arrived")
      (result, seen.asScala.count(!_.contains(marker)))
    } finally sc.removeSparkListener(listener)
  }

  test("an index is held once, on the driver: Spark caches none, and the memory model runs no job") {
    val g = GraphGen.generate(spark, GraphSpec("held-once", nVertices = 60, nEdges = 300,
      nVLabels = 1, nELabels = 1, nCities = 5, seed = 11L)).cache()
    val cfg = SystemConfig.build("D+VBc+EBc", g,
      IndexConfigs.D ++ IndexConfigs.VBc :+ IndexConfigs.EBc(F.Alpha), Catalogue.build(g))
    try {
      assert(spark.sparkContext.getRDDStorageInfo.isEmpty, "Spark holds cached blocks")
      assert(spark.asInstanceOf[classic.SparkSession].sharedState.cacheManager.isEmpty, "Spark's cache is not empty")
      assert(jobs(MemoryModel.configBytes(cfg.g, cfg.store.indexes))._2 == 0)

      // A self-join of one frame: each side has its own attributes.
      val e = g.edges
      val twoPaths = e.as("a").join(e.as("b"), col("a.dst") === col("b.src")).count()
      val ends = e.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1)))
      val outDeg = ends.groupMapReduce(_._1)(_ => 1L)(_ + _)
      assert(twoPaths == ends.map(se => outDeg.getOrElse(se._2, 0L)).sum)
    } finally { cfg.unpersist(); g.uncache() }
  }

  /** Tables built over the configuration's indexes and graph. */
  private def live(cfg: SystemConfig): Int =
    cfg.store.indexes.map(_.tables.live).sum + cfg.g.vertexStore.live + cfg.g.edgeStore.live

  /** `cfg.count(q)` runs the jobs of counting the vertex table it scans and
    * no more: one job, or two with adaptive execution on, which runs the
    * count's shuffle stage as a job of its own. A repeat builds no table. */
  private def assertOneJob(cfg: SystemConfig, q: QueryGraph): Unit = {
    val scan = jobs(cfg.g.vertices.count())._2
    val first = jobs(cfg.count(q))._2
    val built = live(cfg)
    val repeat = jobs(cfg.count(q))._2
    assert((first, repeat) == (scan, scan), s"${q.name} under ${cfg.name}: jobs of the first run and the repeat")
    assert(live(cfg) == built, s"${q.name} under ${cfg.name}: the repeat built a table")
  }

  test("count runs only the jobs of its scan, on the first run and on a repeat") {
    for (q <- SubgraphQueries.forLabels(nVLabels = 3, nELabels = 2); cfg <- Seq(F.cfgD, F.cfgDs, F.cfgDp))
      assertOneJob(cfg, q)
    val mf1 = MoneyFlow.queries(F.Alpha, 200).head
    assert(F.finDVBc.plan(mf1).ops.exists(_.isInstanceOf[MultiExtendOp]))
    assertOneJob(F.finDVBc, mf1)
    assertOneJob(F.finDEBplain, MoneyFlow.twoEdgePath(F.Alpha))
    assertOneJob(F.finDVBt, MagicRecs.queries(timeThreshold = 800, a1Limit = Some(150L)).head)
  }

  /** Runs `body` with the session's SQL settings `conf`, then restores them. */
  private def withConf[A](conf: (String, String)*)(body: => A): A = {
    val old = conf.map { case (k, _) => k -> spark.conf.getOption(k) }
    conf.foreach { case (k, v) => spark.conf.set(k, v) }
    try body finally old.foreach { case (k, v) => v.fold(spark.conf.unset(k))(spark.conf.set(k, _)) }
  }

  test("without adaptive execution or whole-stage code generation, count runs one job with the same result") {
    val mf1 = MoneyFlow.queries(F.Alpha, 200).head
    val pairs = SubgraphQueries.forLabels(nVLabels = 3, nELabels = 2).take(3).flatMap(q =>
      Seq(F.cfgD, F.cfgDs, F.cfgDp).map(c => (c, q))) ++ Seq(
      (F.finDVBc, mf1), (F.finDEBplain, MoneyFlow.twoEdgePath(F.Alpha)),
      (F.finDVBt, MagicRecs.queries(timeThreshold = 800, a1Limit = Some(150L)).head))
    val expected = pairs.map { case (cfg, q) => cfg.count(q) }
    withConf("spark.sql.adaptive.enabled" -> "false", "spark.sql.codegen.wholeStage" -> "false") {
      for (((cfg, q), n) <- pairs.zip(expected)) {
        assert(jobs(cfg.count(q)) == ((n, 1)), s"${q.name} under ${cfg.name}: (count, jobs)")
      }
    }
  }

  test("releasing a configuration and its graph leaves no table; a rebuilt one matches ground truth") {
    val g = GraphGen.generate(spark, GraphSpec("release", nVertices = 60, nEdges = 300,
      nVLabels = 2, nELabels = 2, nCities = 5, seed = 7L)).cache()
    val cat = Catalogue.build(g)
    val qs = SubgraphQueries.forLabels(nVLabels = 2, nELabels = 2).take(4)
    def tables(cfg: SystemConfig) = (cfg.store.indexes.map(_.tables) :+ g.vertexStore :+ g.edgeStore).map(_.live)

    val first = SystemConfig.build("D", g, IndexConfigs.D, cat)
    qs.foreach(first.count)
    assert(tables(first).sum > 0)
    first.unpersist()
    g.uncache()
    assert(tables(first).forall(_ == 0), tables(first))

    def rows(df: DataFrame) = df.select(df.columns.sorted.map(df.col): _*).collect().map(_.toSeq).toSet
    val again = SystemConfig.build("D", g, IndexConfigs.D, cat)
    try for (q <- qs) assert(rows(again.run(q)) == rows(NaiveEvaluator.run(g, q)), q.name)
    finally { again.unpersist(); g.uncache() }
  }
}
