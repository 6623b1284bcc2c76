package repro.core.index

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.col
import repro.core.query._

/** The query predicates one access path satisfies without a property-store
  * lookup (§4.1–4.2), split by how:
  *
  * @param keyed  predicates on a property the index materializes as a key
  *               column; they still need a filter on the index DataFrame,
  *               which prunes to the matching partitions and sorted ranges
  * @param byView predicates implied by the index's view: they hold for
  *               every entry by construction
  */
final case class Coverage(keyed: Seq[QPred], byView: Seq[QPred]) {
  def preds: Seq[QPred] = keyed ++ byView
  def size: Int = keyed.size + byView.size
}

object Coverage {

  /** Coverage of matching query edge `qe` through `ix`, bound to variable
    * `bound` (a vertex for default and vertex-bound indexes, an edge for
    * edge-bound ones) and reaching vertex `nbr`.
    *
    * None when the query does not imply the index's view: the view might
    * then miss matches, so the index is unusable. The view, renamed from its
    * [[Role]] variables to the access's, is implied when each of its
    * predicates is a predicate of the query: implication is structural, as
    * the paper's INDEX STORE inspects declared predicates rather than running
    * a general implication engine. A view predicate on the bound vertex alone
    * is required but not counted: that vertex was matched, and its
    * predicates applied, before this access.
    */
  def of(ix: APlusIndex, q: QueryGraph, qe: QEdge, bound: String, nbr: String): Option[Coverage] = {
    val roles = Map(Role.Bound -> bound, Role.Adj -> qe.name, Role.Nbr -> nbr)
    val view = ix.defn.view.map(_.rename(roles))
    if (!view.forall(q.preds.contains)) None
    else {
      val keyed =
        q.preds.filter(p => p.eVars == Seq(qe.name) && p.keyProp.exists(ix.coversAdj)) ++
        q.preds.filter(p => p.vVars == Seq(nbr) && p.keyProp.exists(ix.coversNbr))
      val byView = view.filterNot(_.vVars == Seq(bound))
      Some(Coverage(keyed, byView.distinct.filterNot(keyed.contains)))
    }
  }

  /** Filter of a keyed predicate on the index's key column. */
  def keyColumn(p: QPred): Column = {
    val target = if (p.eVars.nonEmpty) AdjEdge else NbrVertex
    p.column((_, prop) => col(Key(target, prop).colName), col)
  }
}
