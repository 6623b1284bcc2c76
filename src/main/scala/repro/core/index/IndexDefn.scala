package repro.core.index

import repro.core.query.{EdgePairPred, QPred}

/** Which side of the edge is the bound (primary-partitioning) vertex. */
sealed trait Direction { def boundCol: String; def nbrCol: String }
case object Fwd extends Direction { val boundCol = "src"; val nbrCol = "dst" }
case object Bwd extends Direction { val boundCol = "dst"; val nbrCol = "src" }

/** The four 2-path shapes of secondary edge-bound indexes (§2.2.2).
  *
  * ``sharedIsDst``: the shared vertex of the 2-path is the bound edge's
  * destination (else its source). ``adjDir``: the direction of the adjacent
  * edge seen from the shared vertex, `Fwd` when it leaves the shared vertex
  * and `Bwd` when it points into it; it is the index's direction. Paper
  * naming:
  *  - Destination-Forward  = (shared=dst, adj outgoing)
  *  - Destination-Backward = (shared=dst, adj incoming)
  *  - Source-Forward       = (shared=src, adj incoming)
  *  - Source-Backward      = (shared=src, adj outgoing)
  */
sealed trait EBShape { def sharedIsDst: Boolean; def adjDir: Direction }
case object DstFwd extends EBShape { val sharedIsDst = true;  val adjDir: Direction = Fwd }
case object DstBwd extends EBShape { val sharedIsDst = true;  val adjDir: Direction = Bwd }
case object SrcFwd extends EBShape { val sharedIsDst = false; val adjDir: Direction = Bwd }
case object SrcBwd extends EBShape { val sharedIsDst = false; val adjDir: Direction = Fwd }

sealed trait IndexKind
/** Default A+ index: contains every edge; the reference the offset lists of
  * secondary indexes point into. */
case object DefaultKind extends IndexKind
/** Secondary vertex-bound index: a view σ_pred(Edges), vertex-ID partitioned. */
case object VertexBoundKind extends IndexKind
/** Secondary edge-bound index: a view over 2-paths, edge-ID partitioned. */
final case class EdgeBoundKind(shape: EBShape) extends IndexKind

/** The fixed variables an index view is written over, named after the
  * column prefixes of the built index: the bound vertex (vertex-bound
  * indexes) or bound edge (edge-bound indexes), the adjacent edge and the
  * neighbour vertex. */
object Role {
  val Bound = "bnd"
  val Adj   = "adj"
  val Nbr   = "nbr"
}

/** A secondary partitioning or sorting criterion: a property of the adjacent
  * edge (``e_adj``) or of the neighbour vertex (``v_nbr``). */
sealed trait KeyTarget
case object AdjEdge   extends KeyTarget
case object NbrVertex extends KeyTarget

final case class Key(target: KeyTarget, prop: String) {
  /** Canonical column name the built index DataFrame materializes. */
  def colName: String = target match {
    case AdjEdge   => s"${Role.Adj}_$prop"
    case NbrVertex => s"${Role.Nbr}_$prop"
  }
}

/** Declarative definition of one A+ index (the unit stored in the INDEX
  * STORE and referenced by CREATE/RECONFIGURE commands in the paper).
  *
  * @param dir      the direction of the adjacent edges; for an edge-bound
  *                 index, its shape's `adjDir`
  * @param partKeys nested secondary partitioning criteria, outermost first
  * @param sortKeys final (most granular) list sort criteria
  * @param view     the view's predicate σ_pred (§2.2), a conjunction over the
  *                 [[Role]] variables: e.g. ``EScalar(adj, amt > 10000)`` or
  *                 ``VProp(nbr, acc, 1)`` for a vertex-bound view, the
  *                 money-flow ``EdgePairPred(bnd, _, _, adj, _, _)``s for an
  *                 edge-bound one; empty for default indexes
  */
final case class IndexDefn(
    name: String,
    kind: IndexKind,
    dir: Direction,
    partKeys: Seq[Key] = Nil,
    sortKeys: Seq[Key] = Nil,
    view: Seq[QPred] = Nil,
) {
  kind match {
    case DefaultKind =>
      require(view.isEmpty, s"$name: default indexes index all edges (no view predicates)")
    case VertexBoundKind =>
      require(!view.exists(_.isInstanceOf[EdgePairPred]),
        s"$name: pair predicates are for edge-bound indexes")
    case EdgeBoundKind(shape) =>
      require(dir == shape.adjDir,
        s"$name: an edge-bound index of shape $shape has direction ${shape.adjDir}, not $dir")
      require(view.nonEmpty && view.forall {
          case EdgePairPred(Role.Bound, _, _, Role.Adj, _, _) => true
          case _                                              => false
        },
        s"$name: an edge-bound view must relate both edges of the 2-path " +
        "(otherwise a vertex-bound index gives the same access path, §2.2.2)")
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
