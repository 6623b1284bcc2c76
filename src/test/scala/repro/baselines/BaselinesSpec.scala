package repro.baselines

import repro.{SparkSpec, TestFixtures => F}
import repro.core.NaiveEvaluator
import repro.core.query._
import repro.workloads.SubgraphQueries

class BaselinesSpec extends SparkSpec {

  private lazy val n4 = new BinaryJoinEvaluator(F.labelled)
  private lazy val n4fin = new BinaryJoinEvaluator(F.financial)

  // ---- Neo4j-like binary-join evaluator

  for (q <- SubgraphQueries.forLabels(3, 2)) {
    test(s"N4-like returns ground truth on ${q.name}") {
      assert(n4.count(q) == NaiveEvaluator.count(F.labelled, q))
    }
  }

  test("N4-like handles anchored queries") {
    val q = QueryGraph("anch",
      Seq(QVertex("a", idEq = Some(195L)), QVertex("b"), QVertex("c")),
      Seq(QEdge("e1", "a", "b"), QEdge("e2", "b", "c")))
    assert(n4fin.count(q) == NaiveEvaluator.count(F.financial, q))
  }

  test("N4-like plans use only default indexes and no MULTI-EXTEND") {
    val p = n4.plan(SubgraphQueries.byName(3, 2, "SQ7"))
    assert(!p.ops.exists(_.isInstanceOf[repro.core.plan.MultiExtendOp]))
    val names = p.ops.flatMap {
      case repro.core.plan.ExtendOp(_, as) => as.map(_.index.name)
      case _ => Nil
    }
    assert(names.toSet.subsetOf(Set("D_fwd", "D_bwd")))
  }

  // ---- TigerGraph-like frontier evaluator

  test("frontier evaluator supports chains and stars, not cycles") {
    val sq = (n: String) => SubgraphQueries.byName(3, 2, n)
    assert(FrontierEvaluator.supports(sq("SQ1")))
    assert(FrontierEvaluator.supports(sq("SQ2")))
    assert(FrontierEvaluator.supports(sq("SQ3")))
    assert(FrontierEvaluator.supports(sq("SQ13")))
    assert(!FrontierEvaluator.supports(sq("SQ4")))
    assert(!FrontierEvaluator.supports(sq("SQ8")))
  }

  for (name <- Seq("SQ1", "SQ2", "SQ3", "SQ13")) {
    test(s"frontier multiplicity count equals enumeration count on $name") {
      val q = SubgraphQueries.byName(3, 2, name)
      assert(FrontierEvaluator.count(F.labelled, q) == NaiveEvaluator.count(F.labelled, q))
    }
  }

  test("frontier count respects mixed edge directions along a chain") {
    val q = QueryGraph("zig",
      Seq(QVertex("a"), QVertex("b"), QVertex("c"), QVertex("d")),
      Seq(QEdge("e1", "a", "b"), QEdge("e2", "c", "b"), QEdge("e3", "c", "d")))
    assert(FrontierEvaluator.supports(q))
    assert(FrontierEvaluator.count(F.financial, q) == NaiveEvaluator.count(F.financial, q))
  }

  test("frontier count respects scalar predicates and anchors") {
    val q = QueryGraph("pred",
      Seq(QVertex("a", idLt = Some(100L)), QVertex("b"), QVertex("c")),
      Seq(
        QEdge("e1", "a", "b", scalarPreds = Seq(EdgeScalarPred("amt", Gt, 500.0))),
        QEdge("e2", "b", "c")))
    assert(FrontierEvaluator.count(F.financial, q) == NaiveEvaluator.count(F.financial, q))
    // a vertex property, a vertex label, and an edge ID taken from a match
    val q2 = QueryGraph("pred2",
      Seq(QVertex("a", propEq = Map("acc" -> 1)), QVertex("b", label = Some(1)), QVertex("c")),
      Seq(QEdge("e1", "a", "b"), QEdge("e2", "b", "c")))
    val e1 = NaiveEvaluator.run(F.labelled, q2).select("e1").head().getLong(0)
    val anchored = q2.copy(name = "pred2-anchored", edges = q2.edges.map(e => if (e.name == "e1") e.copy(idEq = Some(e1)) else e))
    for (x <- Seq(q2, anchored))
      assert(FrontierEvaluator.count(F.labelled, x) == NaiveEvaluator.count(F.labelled, x), x.name)
  }

  test("frontier star count matches with per-branch predicates") {
    val q = QueryGraph("star",
      Seq(QVertex("a"), QVertex("b"), QVertex("c"), QVertex("d")),
      Seq(
        QEdge("e1", "a", "b", scalarPreds = Seq(EdgeScalarPred("amt", Gt, 300.0))),
        QEdge("e2", "a", "c"),
        QEdge("e3", "d", "a")))
    assert(FrontierEvaluator.supports(q))
    assert(FrontierEvaluator.count(F.financial, q) == NaiveEvaluator.count(F.financial, q))
  }
}
