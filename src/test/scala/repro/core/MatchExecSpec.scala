package repro.core

import org.apache.spark.sql.functions.{col, spark_partition_id}
import repro.{SparkSpec, TestFixtures => F}
import repro.core.plan.{Executor, ExtendOp, Plan, ScanOp}
import repro.core.query._

/** The operator a compiled query runs as: how its scan is dealt to tasks,
  * and what its per-step metrics count. */
class MatchExecSpec extends SparkSpec {

  /** Runs `body` with the session's SQL settings `conf`, then restores them. */
  private def withConf[A](conf: (String, String)*)(body: => A): A = {
    val old = conf.map { case (k, _) => k -> spark.conf.getOption(k) }
    conf.foreach { case (k, v) => spark.conf.set(k, v) }
    try body finally old.foreach { case (k, v) => v.fold(spark.conf.unset(k))(spark.conf.set(k, _)) }
  }

  test("the scan deals vertices round-robin: slice sizes differ by at most 1, the 4 top-degree vertices split") {
    val g = F.labelled
    val q = QueryGraph("scan", Seq(QVertex("a")), Nil)
    val sliceOf = withConf("spark.sql.leafNodeDefaultParallelism" -> "4") {
      new Executor(g, q).execute(Plan(q, Seq(ScanOp("a")), 0.0))
        .select(col("a"), spark_partition_id()).collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    }
    assert(sliceOf.size == g.numVertices)
    val sizes = sliceOf.values.groupMapReduce(identity)(_ => 1)(_ + _)
    assert(sizes.size == 4 && sizes.values.max - sizes.values.min <= 1, sizes)

    val degree = g.edgeStore.values(Seq(Schema.Src, Schema.Dst)).toSeq
      .flatMap(_.map(_.asInstanceOf[Long])).groupMapReduce(identity)(_ => 1L)(_ + _)
    val hubs = degree.toSeq.sortBy { case (v, d) => (-d, v) }.take(4).map(_._1)
    assert(hubs.map(sliceOf).distinct.size == 4, s"hubs $hubs in slices ${hubs.map(sliceOf)}")
  }

  test("per-step metrics: the last step's rows equal count(); a one-edge query reads its granular lists under Ds") {
    val q = QueryGraph("one-edge", Seq(QVertex("a", label = Some(1)), QVertex("b", label = Some(2))),
      Seq(QEdge("e", "a", "b", label = Some(1))))
    val cfg = F.cfgDs
    val plan = cfg.plan(q)
    val (s, access) = plan.ops match {
      case Seq(ScanOp(s), ExtendOp(_, Seq(a))) => (s, a)
      case ops                                => fail(s"unexpected plan ${plan.describe}: $ops")
    }
    val counted = cfg.run(q).groupBy().count()
    val n = counted.collect().head.getLong(0)
    val m = counted.queryExecution.executedPlan.collectFirst { case m: MatchExec => m }.get
    assert(n > 0 && n == NaiveEvaluator.count(cfg.g, q))
    assert(m.metrics("rows1").value == n)

    // The scan reads every vertex and passes on those with the scan
    // vertex's label; the E/I reads, for each of them, its list of the
    // edge label and the neighbour's label.
    val label = q.vertices.map(v => v.name -> v.label.get).toMap
    val scanned = cfg.g.vertexStore.values(Seq(Schema.VertexId, "vLabel"))
      .collect { case Seq(id: Long, l: Int) if l == label(s) => id }.toSet
    assert(m.metrics("entries0").value == cfg.g.numVertices)
    assert(m.metrics("rows0").value == scanned.size)
    val lists = access.index.tables.values(Seq("bound", "adj_eLabel", "nbr_vLabel"))
    val read = lists.count { case Seq(b: Long, e: Int, nl: Int) => scanned(b) && e == 1 && nl == label(access.reaches) }
    assert(access.coverage.keyed.toSet == Set(ELabel("e", 1), VLabel(access.reaches, label(access.reaches))))
    assert(m.metrics("entries1").value == read)
  }
}
