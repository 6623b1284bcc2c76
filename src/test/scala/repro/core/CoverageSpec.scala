package repro.core

import org.apache.spark.sql.execution.{SortExec, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanExec
import org.apache.spark.sql.execution.exchange.Exchange
import org.apache.spark.sql.execution.joins.BaseJoinExec
import repro.{SparkSpec, TestFixtures => F}
import repro.core.index._
import repro.core.plan._
import repro.core.query._
import repro.workloads.{MagicRecs, MoneyFlow, SubgraphQueries}

/** What an access path satisfies of a query's predicates ([[Coverage]]), and
  * the guard that this coverage reaches the compiled program: a lost
  * key-column or view coverage keeps the rows right but adds a property-store
  * read. */
class CoverageSpec extends SparkSpec {

  // a -e-> b with a predicate of every single-variable kind an index can cover
  private val q = QueryGraph("q",
    Seq(QVertex("a", propEq = Map("acc" -> 1)),
        QVertex("b", label = Some(1), propEq = Map("city" -> 2))),
    Seq(QEdge("e", "a", "b", label = Some(1),
      scalarPreds = Seq(EdgeScalarPred("amt", Gt, 500.0)))))
  private val eLabel = ELabel("e", 1)
  private val amt    = EScalar("e", EdgeScalarPred("amt", Gt, 500.0))
  private val vLabel = VLabel("b", 1)
  private val city   = VProp("b", "city", 2)

  private def vb(keys: Seq[Key], view: QPred*): IndexDefn =
    IndexDefn("VB", VertexBoundKind, Fwd, partKeys = keys, view = view)

  private val eLabelKey = Seq(Key(AdjEdge, "eLabel"))

  // (case, index, expected (keyed, byView); None = unusable)
  private val cases: Seq[(String, IndexDefn, Option[(Set[QPred], Set[QPred])])] = Seq(
    ("an adj view predicate the query implies",
      vb(Nil, EScalar(Role.Adj, EdgeScalarPred("amt", Gt, 500.0))), Some((Set(), Set(amt)))),
    ("an adj view predicate the query does not imply",
      vb(Nil, EScalar(Role.Adj, EdgeScalarPred("amt", Gt, 900.0))), None),
    ("an adj view predicate on the edge label",
      vb(Nil, ELabel(Role.Adj, 1)), Some((Set(), Set(eLabel)))),
    ("a nbr view predicate the query implies",
      vb(Nil, VProp(Role.Nbr, "city", 2)), Some((Set(), Set(city)))),
    ("a view on the neighbour's label",
      vb(Nil, VLabel(Role.Nbr, 1)), Some((Set(), Set(vLabel)))),
    ("a bnd view predicate is required but not counted",
      vb(Nil, VProp(Role.Bound, "acc", 1)), Some((Set(), Set()))),
    ("a bnd view predicate the query does not imply",
      vb(Nil, VProp(Role.Bound, "acc", 2)), None),
    ("a key column on eLabel",
      vb(eLabelKey), Some((Set(eLabel), Set()))),
    ("an eLabel both keyed and in the view counts once",
      vb(eLabelKey, ELabel(Role.Adj, 1)), Some((Set(eLabel), Set()))),
    ("key columns on vLabel and a scalar edge property",
      vb(Seq(Key(NbrVertex, "vLabel"), Key(AdjEdge, "amt"))), Some((Set(vLabel, amt), Set()))),
    ("a key column on a neighbour property (propEq)",
      vb(Seq(Key(NbrVertex, "city"))), Some((Set(city), Set()))),
  )

  for ((name, defn, expected) <- cases) {
    test(s"coverage: $name") {
      val ix = APlusIndex.build(F.financial, defn)
      val got = Coverage.of(ix, q, q.edge("e"), "a", "b")
      assert(got.map(c => (c.keyed.toSet, c.byView.toSet)) == expected)
      got.foreach(c => assert(c.size == c.preds.toSet.size, "a predicate counted twice"))
      ix.unpersist()
    }
  }

  private val path = QueryGraph("path",
    Seq(QVertex("a1"), QVertex("a2"), QVertex("a3")),
    Seq(QEdge("e1", "a1", "a2"), QEdge("e2", "a2", "a3")),
    edgePairs = MoneyFlow.flowPairs("e1", "e2", F.Alpha))

  test("coverage: an edge-bound view whose pair predicates the query states") {
    val eb = F.finDEBplain.store.indexes.find(_.isEdgeBound).get
    val got = Coverage.of(eb, path, path.edge("e2"), "e1", "a3")
    assert(got.map(c => (c.keyed.toSet, c.byView.toSet)) == Some((Set(), path.edgePairs.toSet)))
  }

  test("coverage: an edge-bound view with a pair predicate the query lacks is unusable") {
    val eb = F.finDEBplain.store.indexes.find(_.isEdgeBound).get
    val narrower = path.copy(edgePairs = path.edgePairs.take(2))
    assert(Coverage.of(eb, narrower, narrower.edge("e2"), "e1", "a3").isEmpty)
  }

  // ---- access-path join counts

  /** List accesses of a plan: E/I accesses plus MULTI-EXTEND units. */
  private def accesses(p: Plan): Int = p.ops.map {
    case ExtendOp(_, as)      => as.size
    case MultiExtendOp(_, us) => us.size
    case ScanOp(_)            => 0
  }.sum

  /** The program `q` compiles to under `cfg` has one list probe per list
    * access of its plan and `propertyStoreJoins` property-store reads. */
  private def assertJoins(cfg: SystemConfig, q: QueryGraph, propertyStoreJoins: Int): Unit = {
    val p = cfg.plan(q)
    val loops = new Executor(cfg.g, q).execute(p).queryExecution.analyzed
      .collectFirst { case m: MatchLeaf => m.program.loops }.get
    val probes = loops.count(_.source.isInstanceOf[ListProbe])
    val reads  = loops.count(_.source.isInstanceOf[PropertyRead])
    assert((probes, reads) == ((accesses(p), propertyStoreJoins)), s"${q.name} under ${cfg.name}: ${p.describe}")
  }

  private val sqs = SubgraphQueries.forLabels(nVLabels = 3, nELabels = 2)

  test("SQ1-SQ13 under Ds and Dp: one join per list access") {
    for (q <- sqs; cfg <- Seq(F.cfgDs, F.cfgDp)) assertJoins(cfg, q, 0)
  }

  test("SQ1-SQ13 under D: plus one vertex property-store join per extended vertex") {
    for (q <- sqs) assertJoins(F.cfgD, q, q.vertices.size - 1)
  }

  test("MF 2-edge path: one join per access under D+EBmf, two edge property-store joins more under D") {
    val q = MoneyFlow.twoEdgePath(F.Alpha)
    assertJoins(F.finDEBplain, q, 0)
    assertJoins(F.finD, q, 2)
  }

  test("MR1-MR3 under D+VBt: one join per list access") {
    for (q <- MagicRecs.queries(timeThreshold = 800, a1Limit = Some(150L)))
      assertJoins(F.finDVBt, q, 0)
  }

  // ---- physical plan shape

  /** The executed plan of the query is one [[MatchExec]], which runs every
    * list probe and property-store read itself: no join, sort or exchange
    * of Spark's. */
  private def assertOneMatchExec(cfg: SystemConfig, q: QueryGraph): Unit = {
    val plan: SparkPlan = cfg.run(q).queryExecution.executedPlan match {
      case a: AdaptiveSparkPlanExec => a.finalPhysicalPlan
      case p                        => p
    }
    val what = s"${q.name} under ${cfg.name}:\n$plan"
    assert(plan.collect { case m: MatchExec => m }.size == 1, what)
    assert(plan.collect {
      case j: BaseJoinExec => j
      case s: SortExec     => s
      case e: Exchange     => e
    }.isEmpty, what)
  }

  test("SQ, MF and MR plans run as one MatchExec with no join, sort or exchange") {
    for (q <- sqs; cfg <- Seq(F.cfgD, F.cfgDs, F.cfgDp)) assertOneMatchExec(cfg, q)
    assertOneMatchExec(F.finDEBplain, MoneyFlow.twoEdgePath(F.Alpha))
    for (q <- MagicRecs.queries(timeThreshold = 800, a1Limit = Some(150L)))
      assertOneMatchExec(F.finDVBt, q)
    // MULTI-EXTEND's unit lists
    val mf1 = MoneyFlow.queries(F.Alpha, 200).head
    assert(F.finDVBc.plan(mf1).ops.exists(_.isInstanceOf[MultiExtendOp]))
    assertOneMatchExec(F.finDVBc, mf1)
  }
}
