package repro.core.index

import repro.core.query._

/** The INDEX STORE (§4.2): the registry of every A+ index in the system,
  * queried by the optimizer for indexes usable in a Q_{k-z} → Q_k extension.
  *
  * An index is *usable* for matching a query edge iff it has a [[Coverage]]:
  * every predicate baked into its global view is implied by the query
  * (otherwise the view might miss matches).
  */
final class IndexStore(val indexes: Seq[APlusIndex]) {
  val defaults: Map[Direction, APlusIndex] =
    indexes.filter(_.defn.isDefault).map(i => i.defn.dir -> i).toMap
  require(defaults.contains(Fwd) && defaults.contains(Bwd),
    "a configuration must contain forward and backward default A+ indexes " +
    "(they index every edge and are the reference for offset lists)")

  /** Vertex-bound (and default) indexes usable to match `qe` from bound
    * vertex variable `boundVar` (extension direction derived from the edge). */
  def vertexBoundCandidates(q: QueryGraph, qe: QEdge, boundVar: String): Seq[APlusIndex] = {
    val dir: Direction = if (qe.from == boundVar) Fwd else Bwd
    val nbrVar = if (qe.from == boundVar) qe.to else qe.from
    indexes.filter(ix => !ix.isEdgeBound && ix.defn.dir == dir &&
      Coverage.of(ix, q, qe, boundVar, nbrVar).nonEmpty)
  }

  /** Edge-bound indexes usable to match `qe` bound to already-matched query
    * edge `eb`, sharing query vertex `sharedVar`. */
  def edgeBoundCandidates(q: QueryGraph, qe: QEdge, eb: QEdge,
                          sharedVar: String): Seq[APlusIndex] = {
    val wantSharedIsDst = eb.to == sharedVar
    val wantAdjOutgoing = qe.from == sharedVar
    val nbrVar = if (wantAdjOutgoing) qe.to else qe.from
    indexes.filter { ix =>
      ix.defn.kind match {
        case EdgeBoundKind(shape) =>
          shape.sharedIsDst == wantSharedIsDst &&
          shape.adjOutgoing == wantAdjOutgoing &&
          Coverage.of(ix, q, qe, eb.name, nbrVar).nonEmpty
        case _ => false
      }
    }
  }
}
