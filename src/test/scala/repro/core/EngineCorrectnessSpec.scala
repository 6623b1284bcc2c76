package repro.core

import org.apache.spark.sql.DataFrame
import repro.{SparkSpec, TestFixtures => F}
import repro.core.index._
import repro.core.query._
import repro.workloads.{IndexConfigs, MagicRecs, MoneyFlow, SubgraphQueries}

/** The linchpin: every query × every index configuration must return exactly
  * the ground-truth result (the mechanical Spark SQL multi-join).
  */
class EngineCorrectnessSpec extends SparkSpec {

  private def rows(df: DataFrame): Set[Seq[Long]] = {
    val cols = df.columns.sorted
    df.select(cols.head, cols.tail: _*).collect()
      .map(r => (0 until r.length).map(r.getLong)).toSet
  }

  private def check(cfg: SystemConfig, q: QueryGraph): Unit = {
    val expected = rows(NaiveEvaluator.run(cfg.g, q))
    val got      = rows(cfg.run(q))
    assert(got == expected,
      s"${q.name} under ${cfg.name}: got ${got.size} rows, expected ${expected.size}\n" +
      s"plan: ${cfg.plan(q).describe}\n" +
      s"only-engine: ${(got -- expected).take(3)}\nonly-naive: ${(expected -- got).take(3)}")
  }

  // ---- labelled subgraph queries under the three Table-3 configurations

  private val sqs = SubgraphQueries.forLabels(nVLabels = 3, nELabels = 2)

  private val table3Cfgs: Seq[(String, () => SystemConfig)] =
    Seq("D" -> (() => F.cfgD), "Ds" -> (() => F.cfgDs), "Dp" -> (() => F.cfgDp))

  for (q <- sqs; (cn, cfg) <- table3Cfgs) {
    test(s"${q.name} matches ground truth under $cn") { check(cfg(), q) }
  }

  test("SQ1 under D plus a VB index on the neighbour's label reads that index and matches ground truth") {
    val q = SubgraphQueries.byName(3, 2, "SQ1")
    val label = q.vertex(q.edges.head.to).label.get
    val vb = IndexDefn("VB_nl", VertexBoundKind, Fwd,
      partKeys = Seq(Key(AdjEdge, "eLabel")), view = Seq(VLabel(Role.Nbr, label)))
    val cfg = SystemConfig.build("D+VB_nl", F.labelled, IndexConfigs.D :+ vb, F.labelledCat)
    try {
      assert(cfg.plan(q).describe.contains(":VB_nl@"), cfg.plan(q).describe)
      check(cfg, q)
    } finally cfg.unpersist()
  }

  // ---- MagicRecs under D and D+VBt

  private val mrs = MagicRecs.queries(timeThreshold = 800, a1Limit = Some(150L))

  for (q <- mrs) {
    test(s"${q.name} matches ground truth under D")      { check(F.finD, q) }
    test(s"${q.name} matches ground truth under D+VBt")  { check(F.finDVBt, q) }
  }

  // ---- MoneyFlow under D, D+VBc, D+VBc+EBc

  private val mfs = MoneyFlow.queries(alpha = F.Alpha, nV = 200, idLtFrac = 0.5)

  for (q <- mfs) {
    test(s"${q.name} matches ground truth under D")          { check(F.finD, q) }
    test(s"${q.name} matches ground truth under D+VBc")      { check(F.finDVBc, q) }
    test(s"${q.name} matches ground truth under D+VBc+EBc")  { check(F.finDVBcEBc, q) }
  }

  // ---- Table 6 two-edge money-flow path under D and D+EB

  test("MF 2-edge path matches ground truth under D") {
    check(F.finD, MoneyFlow.twoEdgePath(F.Alpha))
  }
  test("MF 2-edge path matches ground truth under D+EBmf") {
    check(F.finDEBplain, MoneyFlow.twoEdgePath(F.Alpha))
  }

  // ---- unconstrained + mixed shapes (plan-space stress)

  test("unlabelled 2-path matches ground truth under D") {
    val q = QueryGraph("p2",
      Seq(QVertex("a"), QVertex("b"), QVertex("c")),
      Seq(QEdge("e1", "a", "b"), QEdge("e2", "b", "c")))
    check(F.finD, q)
  }

  test("mixed-direction 2-path (b<-a->c style) matches ground truth under D") {
    val q = QueryGraph("pIn",
      Seq(QVertex("a"), QVertex("b"), QVertex("c")),
      Seq(QEdge("e1", "b", "a"), QEdge("e2", "a", "c")))
    check(F.finD, q)
  }

  test("triangle with idEq anchor matches ground truth under Dp") {
    val base = SubgraphQueries.byName(3, 2, "SQ4")
    val anchored = base.copy(vertices =
      base.vertices.map(v => if (v.name == "a1") v.copy(idEq = Some(190L), label = None) else v))
    check(F.cfgDp, anchored)
  }
}
