package repro.workloads

import org.apache.spark.sql.functions.{asc, col, desc}
import repro.core.{PropertyGraph, Schema}
import repro.core.query._

/** The financial fraud-detection workload of §5.3.2/§5.4 (Tables 5 and 6,
  * Figure 4).
  *
  * Consecutive-edge "money flow" predicates between an earlier edge eA and a
  * later edge eB: ``eA.date < eB.date``, ``eA.amt > eB.amt``,
  * ``eA.amt < eB.amt + α`` (the intermediate-cut band; α tuned for a target
  * selectivity — 5 % of edge pairs in Table 5, swept in Table 6).
  *
  * Figure 4's exact topologies for MF2–MF5 are not recoverable from the
  * text, so they are reconstructed from the caption predicate lists and the
  * plan descriptions (e.g. MF3's plan in Figure 5 — scan a3, backward-extend
  * to a1, 3-way MULTI-EXTEND on city with a1's VB_c list twice and e2's EB_c
  * list — pins e2 = a1→a3, e3 = a3→a5, and a1 adjacent to a2 and a4).
  * Account types: CQ = 1, SV = 2.
  */
object MoneyFlow {

  val CQ = 1
  val SV = 2

  /** The three money-flow predicates between consecutive edges eA (earlier)
    * and eB (later). */
  def flowPairs(eA: String, eB: String, alpha: Double): Seq[EdgePairPred] = Seq(
    EdgePairPred(eA, "date", Lt, eB, "date"),
    EdgePairPred(eA, "amt", Gt, eB, "amt"),
    EdgePairPred(eA, "amt", Lt, eB, "amt", alpha),
  )

  /** Table 5's calibration for graphs ~2000x smaller than the paper's, where
    * its α for 5 % pair selectivity (§5.3.2; 50 on amt ∈ [1, 1000]) leaves
    * MF3/MF4 with 0–8 rows. α = 300 (about 25 % of consecutive edge pairs
    * pass the band), ID anchors admitting half the vertices (MF3, MF5) and,
    * for MF4's β (an unspecified constant in §5.4), the city of the busiest
    * account (largest out-degree, lowest ID on ties) keep every MF query
    * non-empty: a random city holds too few accounts for MF4's two flows. */
  val Alpha    = 300.0
  val IdLtFrac = 0.5

  def busiestAccountCity(g: PropertyGraph): Int = {
    val busiest = g.edges.groupBy(Schema.Src).count().orderBy(desc("count"), asc(Schema.Src)).head().getLong(0)
    g.vertices.where(col(Schema.VertexId) === busiest).head().getAs[Int]("city")
  }

  /** MF1–MF5 over `g` under the calibration above. */
  def calibrated(g: PropertyGraph): Seq[QueryGraph] =
    queries(Alpha, g.numVertices, IdLtFrac, busiestAccountCity(g))

  /** @param alpha      the intermediate-cut band (absolute amount units)
    * @param nV         vertex count of the dataset (for the ID anchors)
    * @param idLtFrac   fraction of vertices the MF3/MF5 ID anchors admit
    * @param beta       the city constant of MF4's ``a1.city = β`` */
  def queries(alpha: Double, nV: Long, idLtFrac: Double = 0.2, beta: Int = 1): Seq[QueryGraph] = {
    val idLim = math.max(2L, (nV * idLtFrac).toLong)

    // MF1: cyclical flow through 4 accounts starting/ending at a chequing
    // account, two accounts on the path in the same city (§5.3.2).
    val mf1 = QueryGraph("MF1",
      vertices = Seq(
        QVertex("a1", propEq = Map("acc" -> CQ)), QVertex("a2"),
        QVertex("a3"), QVertex("a4")),
      edges = Seq(
        QEdge("e1", "a1", "a2"), QEdge("e2", "a2", "a3"),
        QEdge("e3", "a3", "a4"), QEdge("e4", "a4", "a1")),
      vertexEqs = Seq(VertexEqPred("city", Seq("a2", "a4"))))

    // MF2: two transfers out of the same chequing account ending in accounts
    // in the same city (small query; VB_c helps modestly, EB never applies).
    val mf2 = QueryGraph("MF2",
      vertices = Seq(
        QVertex("a1", propEq = Map("acc" -> CQ)), QVertex("a2"), QVertex("a3")),
      edges = Seq(QEdge("e1", "a1", "a2"), QEdge("e2", "a1", "a3")),
      vertexEqs = Seq(VertexEqPred("city", Seq("a2", "a3"))))

    // MF3 (Figure 4c): e2 = a1→a3, e3 = a3→a5 carry the money-flow pair;
    // a2, a4, a5 must share a city; a3 is ID-anchored.
    val mf3 = QueryGraph("MF3",
      vertices = Seq(
        QVertex("a1", propEq = Map("acc" -> CQ)),
        QVertex("a2", propEq = Map("acc" -> CQ)),
        QVertex("a3", propEq = Map("acc" -> CQ), idLt = Some(idLim)),
        QVertex("a4", propEq = Map("acc" -> CQ)),
        QVertex("a5", propEq = Map("acc" -> SV))),
      edges = Seq(
        QEdge("e1", "a1", "a2"), QEdge("e2", "a1", "a3"),
        QEdge("e3", "a3", "a5"), QEdge("e4", "a1", "a4")),
      vertexEqs = Seq(VertexEqPred("city", Seq("a2", "a4", "a5"))),
      edgePairs = flowPairs("e2", "e3", alpha))

    // MF4 (Figure 4d): two 2-step flows a1→a2→a3 and a1→a4→a5 with
    // a1.city = β and a2/a4 in the same city.
    val mf4 = QueryGraph("MF4",
      vertices = Seq(
        QVertex("a1", propEq = Map("city" -> beta)),
        QVertex("a2", propEq = Map("acc" -> CQ)),
        QVertex("a3", propEq = Map("acc" -> CQ)),
        QVertex("a4", propEq = Map("acc" -> SV)),
        QVertex("a5", propEq = Map("acc" -> SV))),
      edges = Seq(
        QEdge("e1", "a1", "a2"), QEdge("e2", "a2", "a3"),
        QEdge("e3", "a1", "a4"), QEdge("e4", "a4", "a5")),
      vertexEqs = Seq(VertexEqPred("city", Seq("a2", "a4"))),
      edgePairs = flowPairs("e1", "e2", alpha) ++ flowPairs("e3", "e4", alpha))

    // MF5 (Figure 4e): a 4-edge money-flow path through chequing accounts,
    // anchored at a1.
    val mf5 = QueryGraph("MF5",
      vertices = Seq(
        QVertex("a1", propEq = Map("acc" -> CQ), idLt = Some(idLim)),
        QVertex("a2", propEq = Map("acc" -> CQ)),
        QVertex("a3", propEq = Map("acc" -> CQ)),
        QVertex("a4", propEq = Map("acc" -> CQ)),
        QVertex("a5", propEq = Map("acc" -> CQ))),
      edges = Seq(
        QEdge("e1", "a1", "a2"), QEdge("e2", "a2", "a3"),
        QEdge("e3", "a3", "a4"), QEdge("e4", "a4", "a5")),
      edgePairs = flowPairs("e1", "e2", alpha) ++ flowPairs("e2", "e3", alpha) ++
        flowPairs("e3", "e4", alpha))

    Seq(mf1, mf2, mf3, mf4, mf5)
  }

  /** Table 6's query: the simplest money flow, a single-step (2-edge) path. */
  def twoEdgePath(alpha: Double): QueryGraph = QueryGraph("MF2path",
    vertices = Seq(QVertex("a1"), QVertex("a2"), QVertex("a3")),
    edges = Seq(QEdge("e1", "a1", "a2"), QEdge("e2", "a2", "a3")),
    edgePairs = flowPairs("e1", "e2", alpha))
}
