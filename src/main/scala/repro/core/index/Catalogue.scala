package repro.core.index

import org.apache.spark.sql.functions._
import repro.core.{PropertyGraph, Schema}
import repro.core.query._

/** The subgraph catalogue (§4.1): average adjacency-list lengths per
  * (direction, edge label[, neighbour label]) plus property statistics used
  * to estimate predicate selectivities for the i-cost metric.
  *
  * Built once per graph by aggregation; label-conditioned degrees are *per
  * graph vertex* (lists of vertices with no matching edges count as empty),
  * which is what an extension multiplies partial-match cardinalities by.
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

  def labelSel(l: Option[Int]): Double = l.map(vLabelFrac.getOrElse(_, 0.0)).getOrElse(1.0)

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

  def build(g: PropertyGraph): Catalogue = {
    val nV = g.numVertices
    val nE = g.numEdges

    val vLabelFrac = g.vertices
      .groupBy("vLabel").count().collect()
      .map(r => r.getInt(0) -> r.getLong(1).toDouble / nV).toMap

    val vPropCard = Schema.VertexProps.map { p =>
      p -> g.vertices.select(countDistinct(col(p))).head().getLong(0)
    }.toMap

    // Edges joined with neighbour labels once, reused for both directions.
    def degs(dir: Direction): (Map[(Direction, Int), Double], Map[(Direction, Int, Int), Double]) = {
      val nbrLab = g.vertices.select(col(Schema.VertexId).as("__v"), col("vLabel").as("__nl"))
      val e = g.edges
        .select(col(dir.nbrCol).as("__nbr"), col("eLabel"))
        .join(nbrLab, col("__nbr") === col("__v"))
      val byL = e.groupBy("eLabel").count().collect()
        .map(r => (dir, r.getInt(0)) -> r.getLong(1).toDouble / nV).toMap
      val byLN = e.groupBy("eLabel", "__nl").count().collect()
        .map(r => (dir, r.getInt(0), r.getInt(1)) -> r.getLong(2).toDouble / nV).toMap
      (byL, byLN)
    }
    val (fwdL, fwdLN) = degs(Fwd)
    val (bwdL, bwdLN) = degs(Bwd)

    val numericProps = Seq("amt", "date", "time", "currency")
    val rangeRow = g.edges.select(
      numericProps.flatMap(p =>
        Seq(min(col(p)).cast("double").as(s"min_$p"), max(col(p)).cast("double").as(s"max_$p"))): _*
    ).head()
    val ranges = numericProps.zipWithIndex.map { case (p, i) =>
      p -> (rangeRow.getDouble(2 * i), rangeRow.getDouble(2 * i + 1))
    }.toMap

    Catalogue(nV, nE, vLabelFrac, vPropCard, fwdL ++ bwdL, fwdLN ++ bwdLN, ranges)
  }
}
