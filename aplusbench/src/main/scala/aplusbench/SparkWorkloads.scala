package aplusbench

import scala.collection.mutable
import scala.util.Random
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{asc, col, desc}
import repro.core.{GraphGen, GraphSpec, PropertyGraph, SystemConfig}
import repro.core.index._
import repro.core.plan.Executor
import repro.core.query.QueryGraph
import repro.workloads.{Datasets, IndexConfigs, MoneyFlow, SubgraphQueries}

/** The two query workloads: SQ1–SQ13 under D/D_s/D_p (`sq_reconfig`) and
  * MF1–MF5 under D and D+VB_c+EB_c (`fraud_secondary`). One closed-loop
  * client runs every (query, configuration) pair once per pass, in an order
  * drawn from the workload seed. */
object SparkWorkloads {

  /** A configuration: metric-safe id ('+' is not allowed in metric names). */
  final case class Config(id: String, defns: Seq[IndexDefn])

  final case class Workload(
      name: String,
      dataset: Datasets.DatasetDef,
      nVLabels: Int,
      nELabels: Int,
      scale: Double,
      configs: Seq[Config],
      /** Duration of one pass on a 4-core machine; a run of `seconds` makes
        * `round(seconds / nominalPassSeconds)` passes, at least one. */
      nominalPassSeconds: Double,
      queries: PropertyGraph => Seq[QueryGraph])

  val SqReconfig = Workload("sq_reconfig", Datasets.LJ, 2, 4, 0.05,
    Seq(Config("D", IndexConfigs.D), Config("D_s", IndexConfigs.Ds), Config("D_p", IndexConfigs.Dp)),
    nominalPassSeconds = 20,
    queries = _ => SubgraphQueries.forLabels(2, 4))

  /** Money-flow parameters. The paper sets α for 5 % pair selectivity
    * (§5.3.2, Table 5) on graphs 2000x larger than this one; at this size
    * that α (50 on amt ∈ [1, 1000]) leaves MF3/MF4 with 0–8 rows, so a run
    * would time empty work. α = 300 (about 25 % of consecutive edge pairs
    * pass the band) and ID anchors admitting half the vertices (MF3, MF5)
    * keep every MF query non-empty. MF4's `a1.city = β` is anchored on the
    * city of the busiest account (largest out-degree): §5.4 leaves β an
    * unspecified constant, and a city picked at random holds ~6 of the
    * 2400 accounts, too few for MF4's two city-matched flows to occur. */
  val Alpha    = 300.0
  val IdLtFrac = 0.5

  def busiestAccountCity(g: PropertyGraph): Int = {
    val busiest = g.edges.groupBy("src").count().orderBy(desc("count"), asc("src")).head().getLong(0)
    g.vertices.where(col("vId") === busiest).head().getAs[Int]("city")
  }

  val FraudSecondary = Workload("fraud_secondary", Datasets.LJ, 1, 1, 0.1,
    Seq(Config("D", IndexConfigs.D),
        Config("D-VB_c-EB_c", IndexConfigs.D ++ IndexConfigs.VBc :+ IndexConfigs.EBc(Alpha))),
    nominalPassSeconds = 12,
    queries = g => MoneyFlow.queries(Alpha, g.numVertices, IdLtFrac, busiestAccountCity(g)))

  val all: Seq[Workload] = Seq(SqReconfig, FraudSecondary)

  /** One query sample. `probe` holds the traced listener deltas (jobs,
    * stages, tasks, busy ms, fetch-wait ms, shuffle bytes, scan rows). */
  final case class Sample(config: String, query: String, planS: Double,
                          compileS: Double, executeS: Double, rows: Long, ok: Boolean,
                          estCost: Double, probe: Seq[Long]) {
    def latencyS: Double = planS + compileS + executeS
  }

  private final class Setup(val g: PropertyGraph, val cfgs: Seq[SystemConfig],
                            val modelBytes: Map[String, Long]) {
    def teardown(): Unit = { cfgs.foreach(_.unpersist()); g.uncache() }
  }

  /** Set-up as a user pays it: generate and cache the graph, build the
    * catalogue, every index of every configuration, and the memory model.
    * Per-layer times and index statistics go into `m`. */
  private def buildSetup(w: Workload, spark: SparkSession, rec: Record, spec: GraphSpec,
                         m: mutable.LinkedHashMap[String, Double]): Setup = {
    def add(k: String, t: Double): Unit = m(k) = m.getOrElse(k, 0.0) + t
    val (g, tGen) = rec.span("graphgen")(GraphGen.generate(spark, spec).cache())
    val (cat, tCat) = rec.span("catalogue")(Catalogue.build(g))
    m("graphgen.s") = tGen; m("catalogue.s") = tCat
    val built = w.configs.map { c =>
      rec.span(s"config ${c.id}") {
        val idx = c.defns.map { d =>
          val (ix, t) = rec.span(s"index_build ${d.name}")(APlusIndex.build(g, d, BenchSession.IndexPartitions))
          add("index_build.s", t); add(s"index_build.s.${d.name}", t)
          m(s"index.entries.${d.name}") = ix.stats.entries.toDouble
          m(s"index.lists.${d.name}") = ix.stats.nLists.toDouble
          ix
        }
        val defaults = idx.filter(_.defn.isDefault)
        val (base, tBase) = rec.span("memmodel base")(MemoryModel.baseGraphBytes(g))
        add("memmodel.s", tBase)
        val bytes = idx.map { ix =>
          val (b, t) = rec.span(s"memmodel ${ix.name}")(MemoryModel.indexBytes(g, ix, defaults))
          add("memmodel.s", t); m(s"memmodel.bytes.${ix.name}") = b.toDouble
          b
        }
        (SystemConfig(c.id, g, cat, new IndexStore(idx)), base + bytes.sum)
      }._1
    }
    new Setup(g, built.map(_._1), built.map { case (c, b) => c.name -> b }.toMap)
  }

  /** The warm-up miniature has 1/WarmShrink of the workload's vertices and edges. */
  val WarmShrink  = 10
  val WarmQueries = 4

  def run(w: Workload, spark: SparkSession, rec: Record, seed: Long, seconds: Double,
          expect: Option[Fingerprint], scaleOverride: Option[Double]): Outcome = {
    val spec = w.dataset.spec(w.nVLabels, w.nELabels, scaleOverride.getOrElse(w.scale)).copy(seed = seed)

    // ---- warm-up on a miniature of the workload ------------------------------
    // Loads and compiles the set-up path and the common query path (the first
    // WarmQueries queries, query i under configuration i mod #configs), so the
    // timed set-up measures the program rather than the JVM's first minute.
    rec.span("warmup") {
      val mini = buildSetup(w, spark, rec, spec.copy(nVertices = spec.nVertices / WarmShrink,
        nEdges = spec.nEdges / WarmShrink), mutable.LinkedHashMap[String, Double]())
      w.queries(mini.g).take(WarmQueries).zipWithIndex.foreach { case (q, i) =>
        mini.cfgs(i % mini.cfgs.size).count(q)
      }
      mini.teardown()
    }

    // ---- set-up, once: it costs 5–10 s of a run, and the per-run budget
    // cannot hold several ---------------------------------------------------
    val m = mutable.LinkedHashMap[String, Double]()
    val (setup, setupS) = rec.span("setup")(buildSetup(w, spark, rec, spec, m))
    rec.event("setup", ("setup_s" -> setupS) +: m.toSeq: _*)
    val g = setup.g
    val queries = w.queries(g)
    val probe = if (rec.tracing) Some(new ExecProbe(spark).register()) else None

    var attempted, failed = 0L
    val reference = mutable.LinkedHashMap[String, Long]()
    expect.foreach(f => reference ++= f.rows)
    val fingerprintOk = expect.forall(f => f.vertices == g.numVertices && f.edges == g.numEdges)
    if (!fingerprintOk)
      rec.event("fingerprint_mismatch", "vertices" -> g.numVertices, "edges" -> g.numEdges,
        "expected_vertices" -> expect.get.vertices, "expected_edges" -> expect.get.edges)

    def sample(pass: Int, cfg: SystemConfig, q: QueryGraph): Option[Sample] = {
      attempted += 1
      val before = probe.map(_.snapshot())
      try {
        val ((plan, n, tPlan, tCompile, tExec), _) = rec.span(s"query ${cfg.name} ${q.name}") {
          val (plan, tPlan) = rec.span("plan")(cfg.plan(q))
          val (df, tCompile) = rec.span("compile")(new Executor(g, q).execute(plan))
          val (n, tExec) = rec.span("execute")(df.count())
          (plan, n, tPlan, tCompile, tExec)
        }
        val deltas = probe.map(p => p.snapshot().zip(before.get).map { case (a, b) => a - b }).getOrElse(Nil)
        val expected = reference.getOrElseUpdate(q.name, n)
        val s = Sample(cfg.name, q.name, tPlan, tCompile, tExec, n, n == expected && fingerprintOk,
          plan.estCost, deltas)
        if (!s.ok) failed += 1
        rec.event("query", "pass" -> pass, "config" -> s.config, "query" -> s.query,
          "plan_s" -> s.planS, "compile_s" -> s.compileS, "execute_s" -> s.executeS,
          "latency_s" -> s.latencyS, "rows" -> s.rows, "expected_rows" -> reference(q.name),
          "ok" -> s.ok, "est_icost" -> s.estCost, "probe" -> s.probe)
        Some(s)
      } catch {
        case e: Exception =>
          failed += 1
          rec.event("query_error", "pass" -> pass, "config" -> cfg.name, "query" -> q.name,
            "error" -> e.toString)
          None
      }
    }

    val (floor, _) = rec.span("spark floor")(BenchSession.floorSeconds(spark, 10))

    // ---- measured passes ---------------------------------------------------
    // A pass is the unit of measurement (every pair once), so each run sees
    // the same query mix; the pass count follows from `seconds` and the
    // workload's nominal pass time, not from the clock, so every run does
    // the same work. Queries run in a fixed order, each under every
    // configuration in a seeded order: the JIT is still warming during the
    // first pass (its first third ran 10–40 % slower than its last), and a
    // fixed query order puts that cost on the same queries in every run.
    val samples = mutable.ArrayBuffer[Sample]()
    val gc0 = Jvm.gcSeconds()
    val t0 = System.nanoTime()
    val passes = math.max(1, math.round(seconds / w.nominalPassSeconds).toInt)
    for (pass <- 0 until passes) {
      val rnd = new Random(seed * 1000003L + pass)
      rec.span(s"pass $pass") {
        queries.foreach(q => rnd.shuffle(setup.cfgs).foreach(c => samples ++= sample(pass, c, q)))
      }
    }
    val phaseS = (System.nanoTime() - t0) / 1e9
    val gcS = Jvm.gcSeconds() - gc0
    val cacheBytes = BenchSession.cacheBytes(spark)

    // ---- metrics -------------------------------------------------------------
    val lat = samples.map(_.latencyS).toSeq
    val richest = setup.modelBytes.values.max.toDouble
    rec.put("setup_s", setupS, "s")
    rec.put("latency_p50_ms", Stats.pct(lat, 0.5) * 1e3, "ms")
    rec.put("latency_p90_ms", Stats.pct(lat, 0.9) * 1e3, "ms")
    rec.put("throughput_per_s", samples.size / phaseS, "1/s")
    rec.put("query_samples", samples.size.toDouble, "count")
    rec.put("failed_frac", failed.toDouble / attempted, "ratio")

    m.foreach { case (k, v) =>
      val unit = if (k.endsWith(".s") || k.contains(".s.")) "s" else if (k.startsWith("memmodel.bytes")) "B" else "count"
      rec.put(k, v, unit)
    }
    rec.put("model_bytes", richest, "B")
    rec.put("cache_bytes", cacheBytes.toDouble, "B")
    rec.put("spark.floor_s", floor, "s")
    rec.put("plan.s", Stats.mean(samples.map(_.planS)), "s")
    rec.put("plan.est_icost", Stats.mean(samples.map(_.estCost)), "icost")
    rec.put("compile.s", Stats.mean(samples.map(_.compileS)), "s")
    rec.put("execute.s", Stats.mean(samples.map(_.executeS)), "s")
    setup.cfgs.foreach { c =>
      rec.put(s"execute.s.${c.name}", Stats.mean(samples.filter(_.config == c.name).map(_.executeS)), "s")
    }
    if (probe.nonEmpty && samples.nonEmpty) {
      def perQuery(i: Int, scale: Double = 1.0) = Stats.mean(samples.map(_.probe(i).toDouble)) * scale
      rec.put("execute.jobs", perQuery(0), "count")
      rec.put("execute.stages", perQuery(1), "count")
      rec.put("execute.tasks", perQuery(2), "count")
      rec.put("execute.task_busy_s", perQuery(3, 1e-3), "s")
      rec.put("execute.fetch_wait_s", perQuery(4, 1e-3), "s")
      rec.put("execute.shuffle_bytes", perQuery(5), "B")
      rec.put("execute.scan_rows", perQuery(6), "rows")
      rec.put("execute.scan_rows_per_result",
        samples.map(_.probe(6)).sum.toDouble / math.max(1L, samples.map(_.rows).sum), "ratio")
    }
    queries.foreach(q => rec.put(s"result.rows.${q.name}", reference.getOrElse(q.name, -1L).toDouble, "rows"))
    val zero = queries.filter(q => reference.get(q.name).contains(0L)).map(_.name)
    zero.foreach(q => rec.event("zero_rows", "query" -> q))
    rec.put("result.zero_row_queries", zero.size.toDouble, "count")
    rec.put("jvm.gc_s", gcS, "s")

    val fp = Fingerprint(g.numVertices, g.numEdges, reference.toSeq)
    setup.teardown()
    Outcome(attempted, if (fingerprintOk) failed else attempted, fp, zero)
  }
}

/** What identifies a workload's inputs for one seed: graph size and the
  * expected row count of every query. */
final case class Fingerprint(vertices: Long, edges: Long, rows: Seq[(String, Long)])

final case class Outcome(attempted: Long, failed: Long, fingerprint: Fingerprint, zeroRowQueries: Seq[String])
