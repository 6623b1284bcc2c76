package repro.core

import org.apache.spark.sql.DataFrame
import repro.{SparkSpec, TestFixtures => F}
import repro.core.index._
import repro.core.plan.{Executor, ExtendOp, MultiExtendOp, Plan, ScanOp}
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

  /** Asserts the engine's rows equal the ground truth's; their number. */
  private def check(cfg: SystemConfig, q: QueryGraph): Int = {
    val expected = rows(NaiveEvaluator.run(cfg.g, q))
    val got      = rows(cfg.run(q))
    assert(got == expected,
      s"${q.name} under ${cfg.name}: got ${got.size} rows, expected ${expected.size}\n" +
      s"plan: ${cfg.plan(q).describe}\n" +
      s"only-engine: ${(got -- expected).take(3)}\nonly-naive: ${(expected -- got).take(3)}")
    expected.size
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

  // ---- multiway intersections on non-empty results: on `labelled`, SQ8 and
  // SQ11 have 0 rows, so their 3- and 4-list E/Is are checked here

  for ((name, z) <- Seq("SQ8" -> 3, "SQ11" -> 4)) {
    test(s"unlabelled $name under D intersects $z lists and matches a non-empty ground truth") {
      val q = SubgraphQueries.byName(1, 1, name)
      val p = F.finD.plan(q)
      assert(p.ops.exists { case ExtendOp(_, as) => as.size == z; case _ => false }, p.describe)
      assert(check(F.finD, q) > 0, p.describe)
    }
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

  // ---- edge-bound chains on non-empty results: at the fixtures' α MF5, whose
  // plan chains three EB_c reads, has 0 rows under every configuration; at
  // Table 5's α no MF query is empty

  private lazy val finEBcAtTable5Alpha = SystemConfig.build("D+VBc+EBc", F.financial,
    IndexConfigs.D ++ IndexConfigs.VBc :+ IndexConfigs.EBc(MoneyFlow.Alpha), F.financialCat)

  private val mfsAtTable5Alpha = MoneyFlow.queries(MoneyFlow.Alpha, nV = 200, idLtFrac = MoneyFlow.IdLtFrac)

  private def ebcReads(p: Plan): Int = p.ops.map {
    case ExtendOp(_, as)      => as.count(_.index.name == "EB_c")
    case MultiExtendOp(_, as) => as.count(_.index.name == "EB_c")
    case ScanOp(_)            => 0
  }.sum

  for (q <- mfsAtTable5Alpha) {
    test(s"${q.name} at α = ${MoneyFlow.Alpha} matches a non-empty ground truth under D+VBc+EBc") {
      assert(check(finEBcAtTable5Alpha, q) > 0, finEBcAtTable5Alpha.plan(q).describe)
    }
  }

  test(s"MF5 at α = ${MoneyFlow.Alpha} under D+VBc+EBc reads EB_c three times") {
    val p = finEBcAtTable5Alpha.plan(mfsAtTable5Alpha.find(_.name == "MF5").get)
    assert(ebcReads(p) == 3, p.describe)
  }

  test(s"MF4 at α = ${MoneyFlow.Alpha} under D+VBc+EBc has a MULTI-EXTEND and reads EB_c twice") {
    val p = finEBcAtTable5Alpha.plan(mfsAtTable5Alpha.find(_.name == "MF4").get)
    assert(p.ops.exists(_.isInstanceOf[MultiExtendOp]) && ebcReads(p) == 2, p.describe)
  }

  // ---- Table 6 two-edge money-flow path under D and D+EB

  test("MF 2-edge path matches ground truth under D") {
    check(F.finD, MoneyFlow.twoEdgePath(F.Alpha))
  }
  test("MF 2-edge path matches ground truth under D+EBmf") {
    check(F.finDEBplain, MoneyFlow.twoEdgePath(F.Alpha))
  }

  // ---- every edge-bound 2-path shape, through the INDEX STORE and the Executor

  for (shape <- Seq(DstFwd, DstBwd, SrcFwd, SrcBwd)) {
    test(s"$shape 2-path matches ground truth through its edge-bound index") {
      // e1 and e2 share a2: e1's destination or source; e2 leaves it or enters it
      val e1 = if (shape.sharedIsDst) QEdge("e1", "a1", "a2") else QEdge("e1", "a2", "a1")
      val e2 = if (shape.adjDir == Fwd) QEdge("e2", "a2", "a3") else QEdge("e2", "a3", "a2")
      val q = QueryGraph(s"path_$shape", Seq(QVertex("a1"), QVertex("a2"), QVertex("a3")),
        Seq(e1, e2), edgePairs = Seq(EdgePairPred("e1", "date", Lt, "e2", "date")))
      val eb = APlusIndex.build(F.financial, IndexDefn(s"EB_$shape", EdgeBoundKind(shape), shape.adjDir,
        view = Seq(EdgePairPred(Role.Bound, "date", Lt, Role.Adj, "date"))))
      val cfg = SystemConfig(s"D+EB_$shape", F.financial, F.financialCat,
        new IndexStore(F.finD.store.indexes :+ eb))
      try {
        val viaEB = cfg.store.accesses(q, e2, "a2", Some(e1)).filter(_.index eq eb)
        assert(viaEB.size == 1, s"$shape: the store does not offer ${eb.name}")
        val plan = Plan(q, Vector(ScanOp("a1"),
          ExtendOp("a2", Seq(cfg.store.accesses(q, e1, "a1").head)),
          ExtendOp("a3", viaEB)), Double.NaN)
        val expected = NaiveEvaluator.count(cfg.g, q)
        assert(expected > 0)
        assert(new Executor(cfg.g, q).execute(plan).count() == expected, plan.describe)
        assert(cfg.count(q) == expected, cfg.plan(q).describe)
      } finally eb.unpersist()
    }
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
