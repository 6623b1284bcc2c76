package repro.core.plan

import scala.collection.mutable
import repro.core.index._
import repro.core.query._

/** Dynamic-programming join optimizer (§4.1).
  *
  * For k = 1..|V_Q| the optimizer keeps the lowest-cost plan per sub-query
  * (per set of matched query vertices), extending each Q_{k-1} plan by an
  * E/I operator and — when the query has a property-equality predicate over
  * z ≥ 2 query vertices — each Q_{k-z} plan by a MULTI-EXTEND operator. For
  * every extension it queries the INDEX STORE for usable vertex- and
  * edge-bound indexes. The cost metric is *i-cost*: the total estimated
  * size of the adjacency lists the plan's extension operators read, using
  * the subgraph catalogue's average list lengths scaled by the estimated
  * selectivity of the predicates baked into each accessed view.
  */
final class Optimizer(store: IndexStore, cat: Catalogue) {

  private case class StateVal(cost: Double, card: Double, ops: Vector[PlanOp])

  def plan(q: QueryGraph): Plan = {
    require(q.edges.nonEmpty && q.isConnected, s"${q.name}: need a connected query with edges")
    val all = q.vertices.map(_.name).toSet
    val best = mutable.Map[Set[String], StateVal]()

    def offer(s: Set[String], v: StateVal): Unit =
      if (!best.get(s).exists(_.cost <= v.cost)) best(s) = v

    q.vertices.foreach { qv =>
      offer(Set(qv.name), StateVal(0.0, scanCard(qv), Vector(ScanOp(qv.name))))
    }

    for (k <- 1 until q.vertices.size) {
      best.filter(_._1.size == k).foreach { case (s, sv) =>
        val me = matchedEdges(q, s)
        (extendTransitions(q, s, sv, me) ++ multiExtendTransitions(q, s, sv, me))
          .foreach { case (s2, v2) => offer(s2, v2) }
      }
    }

    val fin = best.getOrElse(all, sys.error(s"${q.name}: optimizer found no complete plan"))
    Plan(q, fin.ops, fin.cost)
  }

  // ------------------------------------------------------------- costs

  // Selectivities come from `Catalogue.sel`, one factor per predicate. The
  // grouping of the factors below decides the estimates' last bits, which
  // plans.golden pins.
  private def idSel(v: QVertex): Double =
    v.idEq.map(x => cat.sel(VIdEq(v.name, x))).orElse(v.idLt.map(k => cat.sel(VIdLt(v.name, k))))
      .getOrElse(1.0)

  private def propSel(v: QVertex): Double =
    v.propEq.map { case (p, x) => cat.sel(VProp(v.name, p, x)) }.product

  private def scanCard(v: QVertex): Double =
    cat.nV * v.label.fold(1.0)(l => cat.sel(VLabel(v.name, l))) * propSel(v) * idSel(v)

  /** Estimated length of the list this access reads.
    *
    * Deliberately *config-independent* for default and predicate-free
    * vertex-bound indexes (the per-edge-label average, not further narrowed
    * by secondary partitioning/sorting coverage): the paper observes that
    * reconfiguring D → D_s → D_p keeps plan quality — runtime differences
    * come from the physical access path, not a different join order — and
    * §5.3.1 notes the system picks the same plans under D and D+VB_t. View
    * predicates (VB) and 2-path views (EB) do narrow the estimate, which is
    * what lets the optimizer adopt the new plan shapes of §5.3.2/§5.4.
    * Coverage of the remaining predicates is the tie-breaker (score). */
  private def accessLen(a: Access): Double = {
    val ix = a.index
    val base = ix.defn.kind match {
      case EdgeBoundKind(_) => ix.stats.entries.toDouble / math.max(1L, cat.nE)
      case _                => cat.listLen(a.dir, a.qe.label, None)
    }
    base * (if (ix.defn.kind == VertexBoundKind) ix.defn.view.map(cat.sel).product else 1.0)
  }

  /** Accesses of equal i-cost are told apart by the number of query
    * predicates they satisfy without a property-store lookup (the INDEX
    * STORE returns the most covering index). */
  private def score(a: Access): Double =
    accessLen(a) * (1.0 - 1e-6 * a.coverage.size)

  /** Full-selectivity cardinality multiplier of matching `qe` (primary
    * extension if `primary`, else a closing/intersected edge). */
  private def edgeMult(q: QueryGraph, qe: QEdge, newV: QVertex, dir: Direction,
                       primary: Boolean, matchedE: Set[String]): Double = {
    val base =
      if (primary) cat.listLen(dir, qe.label, newV.label)
      else cat.listLen(dir, qe.label, None) / math.max(1L, cat.nV)
    val scalars = qe.scalarPreds.map(sp => cat.sel(EScalar(qe.name, sp))).product
    val pairs = q.edgePairs
      .filter(p => (p.e1 == qe.name && matchedE(p.e2)) || (p.e2 == qe.name && matchedE(p.e1)))
      .map(cat.sel).product
    base * scalars * pairs
  }

  private def matchedEdges(q: QueryGraph, s: Set[String]): Set[String] =
    q.edges.filter(e => s(e.from) && s(e.to)).map(_.name).toSet

  /** The cheapest usable access kept by `keep` that matches `qe` from its
    * endpoint in `s`: through a vertex-bound list of that endpoint, or an
    * edge-bound list of a matched edge `me` incident to it. */
  private def pick(q: QueryGraph, qe: QEdge, s: Set[String], me: Set[String],
                   keep: Access => Boolean = _ => true): Option[Access] = {
    val from = if (s(qe.from)) qe.from else qe.to
    (store.accesses(q, qe, from) ++
      q.edgesOf(from).filter(e => me(e.name)).flatMap(e => store.accesses(q, qe, from, Some(e))))
      .filter(keep).minByOption(score)
  }

  /** Extra selectivity from vertex-equality predicates linking `newVs` to
    * each other / to already-matched vars (one factor per new link). */
  private def eqLinkSel(q: QueryGraph, s: Set[String], newVs: Seq[String],
                        equatedWithin: Option[String]): Double =
    q.vertexEqs.map { p =>
      val already = p.vars.count(s)
      val added   = p.vars.count(newVs.contains)
      if (added == 0) 1.0
      else {
        val links =
          if (equatedWithin.contains(p.prop)) (if (already > 0) 1 else 0) // intersection did the rest
          else added - (if (already > 0) 0 else 1)
        math.pow(cat.vPropSel(p.prop), links)
      }
    }.product

  // -------------------------------------------------------- transitions

  /** The state reached from `sv` by `op`, which reads `accesses` once per
    * partial match and multiplies the cardinality by `mult`. */
  private def step(sv: StateVal, s2: Set[String], accesses: Seq[Access], mult: Double,
                   op: PlanOp): (Set[String], StateVal) =
    (s2, StateVal(sv.cost + sv.card * accesses.map(score).sum, math.max(sv.card * mult, 1e-6), sv.ops :+ op))

  /** E/I: extend by one frontier vertex, intersecting a list per connecting
    * edge; the cheapest list is the primary one. */
  private def extendTransitions(q: QueryGraph, s: Set[String], sv: StateVal,
                                me: Set[String]): Seq[(Set[String], StateVal)] =
    q.frontier(s).flatMap { nv =>
      val picks = q.connecting(nv, s).map(pick(q, _, s, me))
      Option.when(picks.forall(_.isDefined))(picks.flatten.sortBy(score)).map { as =>
        val newV = q.vertex(nv)
        val mult = as.zipWithIndex.foldLeft(idSel(newV) * propSel(newV) * eqLinkSel(q, s, Seq(nv), None)) {
          case (m, (a, i)) => m * edgeMult(q, a.qe, newV, a.dir, primary = i == 0, me)
        }
        step(sv, s + nv, as, mult, ExtendOp(nv, as))
      }
    }

  /** MULTI-EXTEND: extend by z ≥ 2 vertices of one property equality at
    * once, each through one list that carries the property. */
  private def multiExtendTransitions(q: QueryGraph, s: Set[String], sv: StateVal,
                                     me: Set[String]): Seq[(Set[String], StateVal)] =
    q.vertexEqs.flatMap { p =>
      val cands = p.vars.filterNot(s).filter(q.connecting(_, s).size == 1)
      // subsets of size >= 2 with no query edges among members
      val subsets = (2 to cands.size).flatMap(cands.combinations).filter {
        _.combinations(2).forall { case Seq(a, b) => q.connecting(a, Set(b)).isEmpty }
      }
      subsets.flatMap { sub =>
        val picks = sub.map(v => pick(q, q.connecting(v, s).head, s, me, _.index.coversNbr(p.prop)))
        Option.when(picks.forall(_.isDefined))(picks.flatten).map { as =>
          val within = eqLinkSel(q, s, sub, Some(p.prop)) * math.pow(cat.vPropSel(p.prop), sub.size - 1)
          val mult = as.foldLeft(within) { (m, a) =>
            val newV = q.vertex(a.reaches)
            m * (edgeMult(q, a.qe, newV, a.dir, primary = true, me) * idSel(newV) * propSel(newV))
          }
          step(sv, s ++ sub, as, mult, MultiExtendOp(p.prop, as))
        }
      }
    }
}
