package repro.workloads

import repro.core.index._

/** The index configurations evaluated in §5 — each a set of [[IndexDefn]]s
  * handed to [[repro.core.SystemConfig]] for materialization.
  */
object IndexConfigs {

  /** D (§5.2): default forward/backward indexes partitioned by edge label,
    * sorted by neighbour ID. */
  val D: Seq[IndexDefn] = Seq(
    IndexDefn("D_fwd", DefaultKind, Fwd, partKeys = Seq(Key(AdjEdge, "eLabel"))),
    IndexDefn("D_bwd", DefaultKind, Bwd, partKeys = Seq(Key(AdjEdge, "eLabel"))),
  )

  /** D_s (§5.2): same partitioning, lists sorted first by neighbour vertex
    * label (then neighbour ID). */
  val Ds: Seq[IndexDefn] = Seq(
    IndexDefn("Ds_fwd", DefaultKind, Fwd,
      partKeys = Seq(Key(AdjEdge, "eLabel")), sortKeys = Seq(Key(NbrVertex, "vLabel"))),
    IndexDefn("Ds_bwd", DefaultKind, Bwd,
      partKeys = Seq(Key(AdjEdge, "eLabel")), sortKeys = Seq(Key(NbrVertex, "vLabel"))),
  )

  /** D_p (§5.2): adds a secondary partitioning on neighbour vertex label. */
  val Dp: Seq[IndexDefn] = Seq(
    IndexDefn("Dp_fwd", DefaultKind, Fwd,
      partKeys = Seq(Key(AdjEdge, "eLabel"), Key(NbrVertex, "vLabel"))),
    IndexDefn("Dp_bwd", DefaultKind, Bwd,
      partKeys = Seq(Key(AdjEdge, "eLabel"), Key(NbrVertex, "vLabel"))),
  )

  /** VB_t (§5.3.1): secondary forward vertex-bound index with the default's
    * partitioning (so it shares layers and stores only offset lists), sorted
    * on the adjacent edge's time property. */
  val VBt: IndexDefn =
    IndexDefn("VB_t", VertexBoundKind, Fwd,
      partKeys = Seq(Key(AdjEdge, "eLabel")), sortKeys = Seq(Key(AdjEdge, "time")))

  /** VB_c (§5.3.2): secondary vertex-bound indexes in both directions,
    * default partitioning, sorted on the neighbour's city property. */
  val VBc: Seq[IndexDefn] = Seq(
    IndexDefn("VBc_fwd", VertexBoundKind, Fwd,
      partKeys = Seq(Key(AdjEdge, "eLabel")), sortKeys = Seq(Key(NbrVertex, "city"))),
    IndexDefn("VBc_bwd", VertexBoundKind, Bwd,
      partKeys = Seq(Key(AdjEdge, "eLabel")), sortKeys = Seq(Key(NbrVertex, "city"))),
  )

  /** EB_c (§5.4): destination-forward edge-bound index over the MoneyFlow
    * 2-path view (Example 8 with the α-band predicate added), grouped by the
    * neighbour's account type and sorted by the neighbour's city. */
  def EBc(alpha: Double): IndexDefn =
    IndexDefn("EB_c", EdgeBoundKind(DstFwd), Fwd,
      partKeys = Seq(Key(NbrVertex, "acc")),
      sortKeys = Seq(Key(NbrVertex, "city")),
      view = MoneyFlow.flowPairs(Role.Bound, Role.Adj, alpha))

  /** EB for Table 6: the plain MoneyFlow view without grouping (the query
    * has no account/city predicates). */
  def EBplain(alpha: Double): IndexDefn =
    IndexDefn("EB_mf", EdgeBoundKind(DstFwd), Fwd,
      view = MoneyFlow.flowPairs(Role.Bound, Role.Adj, alpha))
}
