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
  * @param byView predicates implied by the index's view (vertex-bound view
  *               predicates, edge-bound pair predicates): they hold for every
  *               entry by construction
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
    * None when the query does not imply one of the index's view or pair
    * predicates: the view might then miss matches, so the index is unusable.
    * Implication is structural (an exact match with a query predicate), as
    * the paper's INDEX STORE inspects declared predicates rather than running
    * a general implication engine. A view predicate on the bound vertex is
    * required but not counted: that vertex was matched, and its predicates
    * applied, before this access.
    */
  def of(ix: APlusIndex, q: QueryGraph, qe: QEdge, bound: String, nbr: String): Option[Coverage] = {
    def implied(vp: ScalarViewPred): Option[QPred] = q.preds.find {
      case ELabel(e, l)      => vp.target == OnAdjEdge && e == qe.name &&
                                vp.prop == "eLabel" && vp.op == EqOp && vp.value == l
      case EScalar(e, sp)    => vp.target == OnAdjEdge && e == qe.name &&
                                sp == EdgeScalarPred(vp.prop, vp.op, vp.value)
      case VProp(v, p, x)    => vp.op == EqOp && p == vp.prop && x == vp.value &&
                                (vp.target == OnNbrVertex && v == nbr ||
                                 vp.target == OnBoundVertex && v == bound)
      case _                 => false
    }
    def paired(pp: PairViewPred): Option[QPred] = q.edgePairs.find(qp =>
      qp.e1 == bound && qp.e2 == qe.name && qp.p1 == pp.bProp && qp.p2 == pp.adjProp &&
        qp.op == pp.op && qp.delta == pp.delta)

    val views = ix.defn.viewPreds.map(vp => (vp, implied(vp)))
    val pairs = ix.defn.pairPreds.map(paired)
    if (views.exists(_._2.isEmpty) || pairs.exists(_.isEmpty)) None
    else {
      val keyed =
        q.preds.filter(p => p.eVars == Seq(qe.name) && p.keyProp.exists(ix.coversAdj)) ++
        q.preds.filter(p => p.vVars == Seq(nbr) && p.keyProp.exists(ix.coversNbr))
      val byView = views.collect { case (vp, Some(p)) if vp.target != OnBoundVertex => p } ++
        pairs.flatten
      Some(Coverage(keyed, byView.distinct.filterNot(keyed.contains)))
    }
  }

  /** Filter of a keyed predicate on the index's key column. */
  def keyColumn(p: QPred): Column = {
    val target = if (p.eVars.nonEmpty) AdjEdge else NbrVertex
    p.column((_, prop) => col(Key(target, prop).colName), col)
  }
}
