package repro.core

import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{classic, DataFrame}
import org.apache.spark.sql.functions.{col, count, sum}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, AdaptiveSparkPlanHelper}
import org.apache.spark.sql.execution.aggregate.HashAggregateExec
import org.apache.spark.sql.execution.exchange.{BroadcastExchangeExec, ShuffleExchangeExec}
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

  /** The result of `action` and the number of stages of each Spark job it
    * runs. Job-start events arrive in order, so once a marker job's start is
    * seen, every earlier one has arrived. */
  private def jobs[A](action: => A): (A, Seq[Int]) = {
    val marker = "lookup-tables-spec-marker"
    val seen = new ConcurrentLinkedQueue[(Option[String], Int)]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = seen.add(
        (Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description"))), e.stageInfos.size))
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      val result = action
      sc.setJobDescription(marker)
      try sc.parallelize(Seq(1), 1).count() finally sc.setJobDescription(null)
      val deadline = System.nanoTime() + 30e9.toLong
      while (!seen.asScala.exists(_._1.contains(marker)) && System.nanoTime() < deadline) Thread.sleep(5)
      assert(seen.asScala.exists(_._1.contains(marker)), "the marker job's start never arrived")
      (result, seen.asScala.toSeq.filterNot(_._1.contains(marker)).map(_._2))
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
      assert(jobs(MemoryModel.configBytes(cfg.g, cfg.store.indexes))._2.isEmpty)
      assert(jobs(Catalogue.build(g))._2.isEmpty)

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

  /** The fixture pairs of the count tests: the Table 3 trio on SQ1–SQ13,
    * a MULTI-EXTEND plan, an EB plan and a VB_t plan. */
  private lazy val countPairs: Seq[(SystemConfig, QueryGraph)] = {
    val mf1 = MoneyFlow.queries(F.Alpha, 200).head
    assert(F.finDVBc.plan(mf1).ops.exists(_.isInstanceOf[MultiExtendOp]))
    SubgraphQueries.forLabels(nVLabels = 3, nELabels = 2).flatMap(q =>
      Seq(F.cfgD, F.cfgDs, F.cfgDp).map(c => (c, q))) ++ Seq(
      (F.finDVBc, mf1), (F.finDEBplain, MoneyFlow.twoEdgePath(F.Alpha)),
      (F.finDVBt, MagicRecs.queries(timeThreshold = 800, a1Limit = Some(150L)).head))
  }

  /** `cfg.count(q)` equals the ground truth and runs one Spark job of one
    * stage, on the first run and on a repeat, which builds no table. Its
    * executed plan is a `CountExec` with no shuffle and no Spark aggregate. */
  private def assertOneJob(cfg: SystemConfig, q: QueryGraph, truth: Long): Unit = {
    val first = jobs(cfg.count(q))
    val built = live(cfg)
    val repeat = jobs(cfg.count(q))
    assert((first, repeat) == (((truth, Seq(1)), (truth, Seq(1)))),
      s"${q.name} under ${cfg.name}: (count, stages per job) of the first run and the repeat")
    assert(live(cfg) == built, s"${q.name} under ${cfg.name}: the repeat built a table")
    val plan = executed(cfg.run(q).groupBy().count())
    assert(collect(plan) { case c: CountExec => c }.size == 1, s"${q.name} under ${cfg.name}:\n$plan")
    assert(collect(plan) {
      case s: ShuffleExchangeExec => s
      case a: HashAggregateExec   => a
    }.isEmpty, s"${q.name} under ${cfg.name}:\n$plan")
  }

  /** Ground truth of every count pair, computed once. */
  private lazy val truths: Seq[Long] = countPairs.map { case (cfg, q) => NaiveEvaluator.count(cfg.g, q) }

  test("count runs one job of one stage, on the first run and on a repeat") {
    for (((cfg, q), n) <- countPairs.zip(truths)) assertOneJob(cfg, q, n)
  }

  /** Runs `body` with the session's SQL settings `conf`, then restores them. */
  private def withConf[A](conf: (String, String)*)(body: => A): A = {
    val old = conf.map { case (k, _) => k -> spark.conf.getOption(k) }
    conf.foreach { case (k, v) => spark.conf.set(k, v) }
    try body finally old.foreach { case (k, v) => v.fold(spark.conf.unset(k))(spark.conf.set(k, _)) }
  }

  test("without adaptive execution or whole-stage code generation, count runs one job with the same result") {
    withConf("spark.sql.adaptive.enabled" -> "false", "spark.sql.codegen.wholeStage" -> "false") {
      for (((cfg, q), n) <- countPairs.zip(truths)) assertOneJob(cfg, q, n)
    }
  }

  test("Spark still plans every other aggregate, and a count read as rows equals count()") {
    val v = F.labelled.vertices
    val rows = v.collect().toSeq
    def hashAggregated(df: DataFrame) =
      assert(collect(executed(df)) { case a: HashAggregateExec => a }.nonEmpty, executed(df).toString)

    val byLabel = v.groupBy("vLabel").count()
    hashAggregated(byLabel)
    assert(byLabel.collect().map(r => r.getInt(0) -> r.getLong(1)).toMap ==
      rows.groupMapReduce(_.getAs[Int]("vLabel"))(_ => 1L)(_ + _))
    val cities = v.agg(count(col("city")))
    hashAggregated(cities)
    assert(cities.head().getLong(0) == rows.count(!_.isNullAt(v.columns.indexOf("city"))))
    val accs = v.agg(sum(col("acc")))
    hashAggregated(accs)
    assert(accs.head().getLong(0) == rows.map(_.getAs[Int]("acc").toLong).sum)
    val range = spark.range(37)
    hashAggregated(range.groupBy().count())
    assert(range.count() == 37)

    val df = F.cfgDs.run(SubgraphQueries.forLabels(nVLabels = 3, nELabels = 2).head)
    val n = df.count()
    assert(df.groupBy().count().collect().toSeq.map(_.getLong(0)) == Seq(n))
    assert(df.groupBy().count().head().getLong(0) == n)
    assert(df.groupBy().count().selectExpr("count + 1").head().getLong(0) == n + 1)
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
