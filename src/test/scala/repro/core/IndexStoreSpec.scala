package repro.core

import repro.{SparkSpec, TestFixtures => F}
import repro.core.index._
import repro.core.query._

class IndexStoreSpec extends SparkSpec {

  test("a store requires both default directions") {
    val fwdOnly = F.finD.store.indexes.filter(_.defn.dir == Fwd)
    intercept[IllegalArgumentException] { new IndexStore(fwdOnly) }
  }

  test("default indexes are candidates for any edge, in the right direction") {
    val q = QueryGraph("q", Seq(QVertex("a"), QVertex("b")), Seq(QEdge("e", "a", "b")))
    val fromA = F.finD.store.accesses(q, q.edge("e"), "a").map(_.index)
    assert(fromA.nonEmpty && fromA.forall(_.defn.dir == Fwd))
    val fromB = F.finD.store.accesses(q, q.edge("e"), "b").map(_.index)
    assert(fromB.nonEmpty && fromB.forall(_.defn.dir == Bwd))
  }

  test("VB_t is offered alongside the default forward index") {
    val q = QueryGraph("q", Seq(QVertex("a"), QVertex("b")), Seq(QEdge("e", "a", "b")))
    val names = F.finDVBt.store.accesses(q, q.edge("e"), "a").map(_.index.name)
    assert(names.contains("VB_t") && names.contains("D_fwd"))
    // backward: VB_t (forward-only) must not appear
    val bwd = F.finDVBt.store.accesses(q, q.edge("e"), "b").map(_.index.name)
    assert(!bwd.contains("VB_t"))
  }

  test("a predicate view is only usable when the query implies its predicate") {
    val cat = F.financialCat
    val pred = SystemConfig.build("pred", F.financial,
      repro.workloads.IndexConfigs.D :+
        IndexDefn("VB_hi", VertexBoundKind, Fwd,
          view = Seq(EScalar(Role.Adj, EdgeScalarPred("amt", Gt, 900.0)))), cat)
    val plain = QueryGraph("p", Seq(QVertex("a"), QVertex("b")), Seq(QEdge("e", "a", "b")))
    assert(!pred.store.accesses(plain, plain.edge("e"), "a").map(_.index).exists(_.name == "VB_hi"))
    val implied = plain.copy(edges = Seq(
      QEdge("e", "a", "b", scalarPreds = Seq(EdgeScalarPred("amt", Gt, 900.0)))))
    assert(pred.store.accesses(implied, implied.edge("e"), "a").map(_.index).exists(_.name == "VB_hi"))
    pred.unpersist()
  }

  test("edge-bound candidates require matching shape AND implied pair predicates") {
    val store = F.finDVBcEBc.store
    // DstFwd shape: eb = a1->a2, adj = a2->a3, shared a2 = eb.to, adj outgoing
    val q = QueryGraph("q",
      Seq(QVertex("a1"), QVertex("a2"), QVertex("a3")),
      Seq(QEdge("e1", "a1", "a2"), QEdge("e2", "a2", "a3")),
      edgePairs = repro.workloads.MoneyFlow.flowPairs("e1", "e2", F.Alpha))
    assert(store.accesses(q, q.edge("e2"), "a2", Some(q.edge("e1"))).map(_.index.name) == Seq("EB_c"))

    // wrong shape: shared at eb.from
    val q2 = QueryGraph("q2",
      Seq(QVertex("a1"), QVertex("a2"), QVertex("a3")),
      Seq(QEdge("e1", "a2", "a1"), QEdge("e2", "a2", "a3")),
      edgePairs = repro.workloads.MoneyFlow.flowPairs("e1", "e2", F.Alpha))
    assert(store.accesses(q2, q2.edge("e2"), "a2", Some(q2.edge("e1"))).isEmpty)

    // missing the alpha-band predicate: index view is narrower than the query
    val q3 = QueryGraph("q3",
      Seq(QVertex("a1"), QVertex("a2"), QVertex("a3")),
      Seq(QEdge("e1", "a1", "a2"), QEdge("e2", "a2", "a3")),
      edgePairs = Seq(EdgePairPred("e1", "date", Lt, "e2", "date")))
    assert(store.accesses(q3, q3.edge("e2"), "a2", Some(q3.edge("e1"))).isEmpty)
  }

  test("Coverage returns the query predicates the view satisfies") {
    val store = F.finDVBcEBc.store
    val eb = store.indexes.find(_.isEdgeBound).get
    val q = QueryGraph("q",
      Seq(QVertex("a1"), QVertex("a2"), QVertex("a3")),
      Seq(QEdge("e1", "a1", "a2"), QEdge("e2", "a2", "a3")),
      edgePairs = repro.workloads.MoneyFlow.flowPairs("e1", "e2", F.Alpha))
    val cov = Coverage.of(eb, q, q.edge("e2"), "e1", "a3")
    assert(cov.exists(_.byView.toSet == q.edgePairs.toSet) && q.edgePairs.size == 3)
  }
}
