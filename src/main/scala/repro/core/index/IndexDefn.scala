package repro.core.index

import repro.core.query.CmpOp

/** Which side of the edge is the bound (primary-partitioning) vertex. */
sealed trait Direction { def boundCol: String; def nbrCol: String }
case object Fwd extends Direction { val boundCol = "src"; val nbrCol = "dst" }
case object Bwd extends Direction { val boundCol = "dst"; val nbrCol = "src" }

/** The four 2-path shapes of secondary edge-bound indexes (§2.2.2).
  *
  * ``sharedIsDst``: the shared vertex of the 2-path is the bound edge's
  * destination (else its source). ``adjOutgoing``: the adjacent edge leaves
  * the shared vertex (else it points into it). Paper naming:
  *  - Destination-Forward  = (shared=dst, adj outgoing)
  *  - Destination-Backward = (shared=dst, adj incoming)
  *  - Source-Forward       = (shared=src, adj incoming)
  *  - Source-Backward      = (shared=src, adj outgoing)
  */
sealed trait EBShape { def sharedIsDst: Boolean; def adjOutgoing: Boolean }
case object DstFwd extends EBShape { val sharedIsDst = true;  val adjOutgoing = true  }
case object DstBwd extends EBShape { val sharedIsDst = true;  val adjOutgoing = false }
case object SrcFwd extends EBShape { val sharedIsDst = false; val adjOutgoing = false }
case object SrcBwd extends EBShape { val sharedIsDst = false; val adjOutgoing = true  }

sealed trait IndexKind
/** Default A+ index: contains every edge; the reference the offset lists of
  * secondary indexes point into. */
case object DefaultKind extends IndexKind
/** Secondary vertex-bound index: a view σ_pred(Edges), vertex-ID partitioned. */
case object VertexBoundKind extends IndexKind
/** Secondary edge-bound index: a view over 2-paths, edge-ID partitioned. */
final case class EdgeBoundKind(shape: EBShape) extends IndexKind

/** A secondary partitioning or sorting criterion: a property of the adjacent
  * edge (``e_adj``) or of the neighbour vertex (``v_nbr``). */
sealed trait KeyTarget
case object AdjEdge   extends KeyTarget
case object NbrVertex extends KeyTarget

final case class Key(target: KeyTarget, prop: String) {
  /** Canonical column name the built index DataFrame materializes. */
  def colName: String = target match {
    case AdjEdge   => s"adj_$prop"
    case NbrVertex => s"nbr_$prop"
  }
}

/** Which entity a vertex-bound view predicate constrains. */
sealed trait ViewTarget
case object OnAdjEdge     extends ViewTarget
case object OnNbrVertex   extends ViewTarget
case object OnBoundVertex extends ViewTarget

/** A scalar predicate of a vertex-bound global view, e.g.
  * ``e_adj.amt > 10000`` or ``v_nbr.acc = 1``. */
final case class ScalarViewPred(target: ViewTarget, prop: String, op: CmpOp, value: Double)

/** A 2-path view predicate ``e_b.bProp OP e_adj.adjProp + delta``
  * (must relate both edges — the paper's restriction in §2.2.2). */
final case class PairViewPred(bProp: String, op: CmpOp, adjProp: String, delta: Double = 0.0)

/** Declarative definition of one A+ index (the unit stored in the INDEX
  * STORE and referenced by CREATE/RECONFIGURE commands in the paper).
  *
  * @param partKeys  nested secondary partitioning criteria, outermost first
  * @param sortKeys  final (most granular) list sort criteria
  * @param viewPreds vertex-bound view predicate (empty for default indexes)
  * @param pairPreds edge-bound 2-path view predicate (required for EB kind)
  */
final case class IndexDefn(
    name: String,
    kind: IndexKind,
    dir: Direction,
    partKeys: Seq[Key] = Nil,
    sortKeys: Seq[Key] = Nil,
    viewPreds: Seq[ScalarViewPred] = Nil,
    pairPreds: Seq[PairViewPred] = Nil,
) {
  kind match {
    case DefaultKind =>
      require(viewPreds.isEmpty && pairPreds.isEmpty,
        s"$name: default indexes index all edges (no view predicates)")
    case VertexBoundKind =>
      require(pairPreds.isEmpty, s"$name: pair predicates are for edge-bound indexes")
    case EdgeBoundKind(_) =>
      require(pairPreds.nonEmpty,
        s"$name: an edge-bound view must relate both edges of the 2-path " +
        "(otherwise a vertex-bound index gives the same access path, §2.2.2)")
      require(viewPreds.isEmpty, s"$name: use pairPreds for edge-bound views")
  }

  def isDefault: Boolean = kind == DefaultKind
  def isEdgeBound: Boolean = kind.isInstanceOf[EdgeBoundKind]
  /** All properties of the adjacent edge this index materializes as columns. */
  def adjProps: Seq[String] =
    (partKeys ++ sortKeys).filter(_.target == AdjEdge).map(_.prop).distinct
  /** All properties of the neighbour vertex this index materializes. */
  def nbrProps: Seq[String] =
    (partKeys ++ sortKeys).filter(_.target == NbrVertex).map(_.prop).distinct
}
