package repro.core.index

import repro.core.query._

/** What an adjacency-list access is bound to (§2): a matched vertex variable
  * (default / vertex-bound indexes) or a matched edge variable (edge-bound). */
sealed trait Bound { def name: String }
final case class VBound(v: String) extends Bound { def name: String = v }
final case class EBound(edgeVar: String) extends Bound { def name: String = edgeVar }

/** One adjacency-list access: match query edge `qe` through `index`, which
  * satisfies the query predicates in `coverage`. Obtained from
  * [[IndexStore.accesses]]. */
final case class Access(qe: QEdge, index: APlusIndex, bound: Bound, coverage: Coverage) {
  def dir: Direction = index.defn.dir
  /** The query vertex this access reaches (the neighbour side). */
  def reaches: String = if (dir == Fwd) qe.to else qe.from
}

/** The INDEX STORE (§4.2): the registry of every A+ index in the system,
  * queried by the optimizer for indexes usable in a Q_{k-z} → Q_k extension.
  *
  * An index is *usable* for matching a query edge iff it has a [[Coverage]]:
  * every predicate baked into its global view is implied by the query
  * (otherwise the view might miss matches).
  */
final class IndexStore(val indexes: Seq[APlusIndex]) {
  require(Seq(Fwd, Bwd).forall(d => indexes.exists(i => i.defn.isDefault && i.defn.dir == d)),
    "a configuration must contain forward and backward default A+ indexes " +
    "(they index every edge and are the reference for offset lists)")

  /** The usable accesses that match `qe` from its matched endpoint `from`,
    * in the order of `indexes`: through default and vertex-bound indexes
    * bound to `from`, or, given the matched query edge `via` that shares
    * `from` with `qe`, through edge-bound indexes of that 2-path's shape
    * bound to `via`. */
  def accesses(q: QueryGraph, qe: QEdge, from: String, via: Option[QEdge] = None): Seq[Access] = {
    val dir: Direction = if (qe.from == from) Fwd else Bwd
    val nbr = if (dir == Fwd) qe.to else qe.from
    val bound = via.fold[Bound](VBound(from))(e => EBound(e.name))
    indexes.flatMap { ix =>
      val fits = ix.defn.dir == dir && (ix.defn.kind match {
        case EdgeBoundKind(shape) => via.exists(e => shape.sharedIsDst == (e.to == from))
        case _                    => via.isEmpty
      })
      if (fits) Coverage.of(ix, q, qe, bound.name, nbr).map(Access(qe, ix, bound, _)) else None
    }
  }
}
