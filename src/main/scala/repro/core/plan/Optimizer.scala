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
        extendTransitions(q, s, sv).foreach { case (s2, v2) => offer(s2, v2) }
        multiExtendTransitions(q, s, sv).foreach { case (s2, v2) => offer(s2, v2) }
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

  /** Candidate accesses for matching `qe` whose endpoint `boundVar` ∈ S. */
  private def candidates(q: QueryGraph, qe: QEdge, boundVar: String,
                         s: Set[String]): Seq[Access] = {
    val me = matchedEdges(q, s)
    store.accesses(q, qe, boundVar) ++ q.edges
      .filter(e => me(e.name) && e.name != qe.name && (e.from == boundVar || e.to == boundVar))
      .flatMap(e => store.accesses(q, qe, boundVar, Some(e)))
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
        math.pow(cat.vPropSel(p.prop), math.max(0, links))
      }
    }.product

  // -------------------------------------------------------- transitions

  private def extendTransitions(q: QueryGraph, s: Set[String],
                                sv: StateVal): Seq[(Set[String], StateVal)] = {
    val me = matchedEdges(q, s)
    q.frontier(s).flatMap { nv =>
      val newV = q.vertex(nv)
      val conn = q.connecting(nv, s)
      val picks = conn.map { qe =>
        val boundVar = if (s(qe.from)) qe.from else qe.to
        val cands = candidates(q, qe, boundVar, s)
        if (cands.isEmpty) None else Some(cands.minBy(score))
      }
      if (picks.exists(_.isEmpty)) None
      else {
        val accesses = picks.flatten.sortBy(score)
        val iCost = sv.cost + sv.card * accesses.map(score).sum
        var mult = idSel(newV) * propSel(newV) * eqLinkSel(q, s, Seq(nv), None)
        accesses.zipWithIndex.foreach { case (a, i) =>
          mult *= edgeMult(q, a.qe, newV, a.dir, primary = i == 0, me)
        }
        // the primary listLen already includes newV's label share when the
        // catalogue can condition on it; otherwise apply the label fraction
        newV.label.foreach { l =>
          // listLen(dir, l, Some(nl)) already embeds the label fraction; the
          // unconditioned estimate needs it explicitly
          val a0 = accesses.head
          val conditioned = cat.listLen(a0.dir, a0.qe.label, newV.label)
          val unconditioned = cat.listLen(a0.dir, a0.qe.label, None)
          if (conditioned == 0.0 && unconditioned > 0.0)
            mult *= cat.sel(VLabel(nv, l))
        }
        Some((s + nv, StateVal(iCost, math.max(sv.card * mult, 1e-6), sv.ops :+ ExtendOp(nv, accesses))))
      }
    }
  }

  private def multiExtendTransitions(q: QueryGraph, s: Set[String],
                                     sv: StateVal): Seq[(Set[String], StateVal)] = {
    q.vertexEqs.flatMap { p =>
      val cands = p.vars.filterNot(s).filter { v =>
        q.connecting(v, s).size == 1 && q.edgesOf(v).count(e => s(e.from) || s(e.to)) >= 1
      }
      // enumerate subsets of size >= 2 with no query edges among members
      val subsets = (2 to cands.size).flatMap(cands.combinations).filter { sub =>
        sub.combinations(2).forall { case Seq(a, b) =>
          !q.edges.exists(e => (e.from == a && e.to == b) || (e.from == b && e.to == a))
        }
      }
      subsets.flatMap { sub =>
        val units = sub.map { v =>
          val qe = q.connecting(v, s).head
          val boundVar = if (s(qe.from)) qe.from else qe.to
          val cs = candidates(q, qe, boundVar, s).filter(_.index.coversNbr(p.prop))
          if (cs.isEmpty) None
          else Some((v, cs.minBy(score)))
        }
        if (units.exists(_.isEmpty)) None
        else {
          val us = units.flatten
          val iCost = sv.cost +
            sv.card * us.map { case (_, a) => score(a) }.sum
          var mult = eqLinkSel(q, s, sub, Some(p.prop)) *
            math.pow(cat.vPropSel(p.prop), sub.size - 1)
          val me = matchedEdges(q, s)
          us.foreach { case (v, a) =>
            val newV = q.vertex(v)
            mult *= edgeMult(q, a.qe, newV, a.dir, primary = true, me) *
              idSel(newV) * propSel(newV)
          }
          Some((s ++ sub,
            StateVal(iCost, math.max(sv.card * mult, 1e-6), sv.ops :+ MultiExtendOp(p.prop, us))))
        }
      }
    }
  }
}
