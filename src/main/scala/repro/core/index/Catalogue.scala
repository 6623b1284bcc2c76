package repro.core.index

import repro.core.{PropertyGraph, Schema}
import repro.core.query._

/** The subgraph catalogue (§4.1): average adjacency-list lengths per
  * (direction, edge label[, neighbour label]) plus property statistics used
  * to estimate predicate selectivities for the i-cost metric.
  *
  * Built once per graph by counting on the driver; label-conditioned
  * degrees are *per graph vertex* (lists of vertices with no matching edges
  * count as empty), which is what an extension multiplies partial-match
  * cardinalities by.
  */
final case class Catalogue(
    nV: Long,
    nE: Long,
    vLabelFrac: Map[Int, Double],
    vPropCard: Map[String, Long],                       // distinct values per vertex prop
    degByLabel: Map[(Direction, Int), Double],          // avg deg per edge label
    degByLabelNbr: Map[(Direction, Int, Int), Double],  // per (edge label, nbr label)
    ePropRange: Map[String, (Double, Double)],          // min/max per numeric edge prop
) {
  private val avgDegAll: Map[Direction, Double] =
    Seq(Fwd, Bwd).map(d => d -> degByLabel.collect { case ((`d`, _), v) => v }.sum).toMap

  /** Expected length of the list an extension reads, given the access's
    * partitioning-satisfied equality constraints. */
  def listLen(dir: Direction, eLabel: Option[Int], nbrLabel: Option[Int]): Double =
    (eLabel, nbrLabel) match {
      case (Some(l), Some(n)) => degByLabelNbr.getOrElse((dir, l, n), 0.0)
      case (Some(l), None)    => degByLabel.getOrElse((dir, l), 0.0)
      case (None, Some(n))    => avgDegAll(dir) * vLabelFrac.getOrElse(n, 0.0)
      case (None, None)       => avgDegAll(dir)
    }

  /** Selectivity of one equality on a categorical vertex property. */
  def vPropSel(prop: String): Double =
    1.0 / math.max(1L, vPropCard.getOrElse(prop, 1L)).toDouble

  /** Analytic selectivity of a scalar range predicate on a uniform edge prop. */
  def scalarSel(p: EdgeScalarPred): Double = {
    val (lo, hi) = ePropRange.getOrElse(p.prop, (0.0, 1.0))
    val w = math.max(hi - lo, 1e-9)
    val frac = math.min(1.0, math.max(0.0, (p.value - lo) / w))
    p.op match {
      case Lt | Le => frac
      case Gt | Ge => 1.0 - frac
      case EqOp    => 1.0 / w
    }
  }

  /** Selectivity of one predicate among the entries of an adjacency list of
    * one edge label, as `listLen` gives them: an edge-label predicate is
    * 1.0 there, a vertex label its share of the vertices. */
  def sel(p: QPred): Double = p match {
    case VLabel(_, l)            => vLabelFrac.getOrElse(l, 0.0)
    case VProp(_, prop, _)       => vPropSel(prop)
    case VIdEq(_, _)             => 1.0 / nV
    case VIdLt(_, k)             => math.min(1.0, k.toDouble / nV)
    case ELabel(_, _)            => 1.0
    case EIdEq(_, _)             => 1.0 / nE
    case EScalar(_, sp)          => scalarSel(sp)
    case VertexEqPred(prop, vs)  => math.pow(vPropSel(prop), vs.size - 1)
    case pp: EdgePairPred        => pairSel(pp)
  }

  /** Analytic selectivity of ``e1.p1 OP e2.p2 + delta`` for independent
    * uniform props: ~0.5 for a pure comparison, ~delta/range for the paper's
    * α-band (`Lt` with positive delta following a `Gt`). */
  def pairSel(p: EdgePairPred): Double = {
    val (lo, hi) = ePropRange.getOrElse(p.p1, (0.0, 1.0))
    val r = math.max(hi - lo, 1e-9)
    p.op match {
      case EqOp => 1.0 / r
      case Lt | Le if p.delta > 0 && p.p1 == p.p2 => math.min(1.0, p.delta / r) // band width
      case Gt | Ge if p.delta < 0 && p.p1 == p.p2 => math.min(1.0, -p.delta / r)
      case _ => 0.5
    }
  }
}

object Catalogue {

  private val NumericEdgeProps = Seq("amt", "date", "time", "currency")

  /** Every statistic counted on the driver over the graph's collected
    * entries (`vertexStore`, `edgeStore`): vertices by the value of each
    * property, and edges by (edge label, src label, dst label). No Spark job
    * runs once the graph is cached. */
  def build(g: PropertyGraph): Catalogue = {
    val nV = g.numVertices
    val nE = g.numEdges

    val vLabelFrac = g.vertexStore.groups(Seq("vLabel")).map { case (l, n) =>
      l.head.asInstanceOf[Int] -> n.toDouble / nV
    }
    val vPropCard = Schema.VertexProps.map { p =>
      p -> g.vertexStore.groups(Seq(p)).keys.count(_.head != null).toLong
    }.toMap

    // Each edge whose endpoints are graph vertices, grouped with its
    // endpoints' labels.
    val label = g.vertexStore.values(Seq(Schema.VertexId, "vLabel")).map(r => r(0) -> r(1).asInstanceOf[Int]).toMap
    val eGroups = g.edgeStore.values(Seq("eLabel", Schema.Src, Schema.Dst) ++ NumericEdgeProps)
      .filter(e => label.contains(e(1)) && label.contains(e(2)))
      .groupBy(e => (e(0).asInstanceOf[Int], label(e(1)), label(e(2))))
      .map { case ((eLabel, srcLabel, dstLabel), es) =>
        EdgeGroup(eLabel, Map(Bwd -> srcLabel, Fwd -> dstLabel), es.size.toLong,
          NumericEdgeProps.indices.map { i =>
            val xs = es.map(_(3 + i).asInstanceOf[Number].doubleValue)
            (xs.min, xs.max)
          })
      }

    /** Edges per graph vertex, summed over the groups sharing a key. */
    def perVertex[K](key: EdgeGroup => K): Map[K, Double] =
      eGroups.groupMapReduce(key)(_.n)(_ + _).map { case (k, n) => k -> n.toDouble / nV }
    val dirs = Seq[Direction](Fwd, Bwd)
    val degByLabel = dirs.flatMap(d => perVertex[(Direction, Int)](e => (d, e.eLabel))).toMap
    val degByLabelNbr =
      dirs.flatMap(d => perVertex[(Direction, Int, Int)](e => (d, e.eLabel, e.nbrLabel(d)))).toMap

    val ranges = NumericEdgeProps.zipWithIndex.map { case (p, i) =>
      p -> (eGroups.map(_.ranges(i)._1).min, eGroups.map(_.ranges(i)._2).max)
    }.toMap

    Catalogue(nV, nE, vLabelFrac, vPropCard, degByLabel, degByLabelNbr, ranges)
  }

  /** One (edge label, src label, dst label) group: its edge count and the
    * min/max of each numeric edge property. */
  private final case class EdgeGroup(
      eLabel: Int, nbrLabel: Map[Direction, Int], n: Long, ranges: Seq[(Double, Double)])
}
