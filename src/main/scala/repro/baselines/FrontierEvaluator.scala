package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{PropertyGraph, Schema}
import repro.core.query._

/** "TigerGraph-like" baseline for §5.6 (Table 7).
  *
  * The paper observes (via developer communication) that TigerGraph is
  * "highly optimized for long path queries". We model a level-synchronous
  * MPP engine: acyclic (path/star) queries are evaluated as BFS-style
  * frontier expansions carrying *multiplicities* and aggregating per vertex
  * each level — so a k-edge path query costs k edge-table passes instead of
  * enumerating every path — while each hop scans and filters the full edge
  * table at runtime (no granular adjacency-list pruning). This wins exactly
  * on long paths with large result counts (SQ13) and loses on short
  * selective queries (SQ1–SQ3), reproducing the paper's crossover. Cyclic
  * queries cannot be decomposed this way and are unsupported (Table 7 only
  * uses acyclic queries).
  */
object FrontierEvaluator {

  /** Supported shapes: chains (every query vertex has degree ≤ 2, two
    * endpoints) and stars (one center, all other vertices degree 1). */
  def supports(q: QueryGraph): Boolean =
    (q.vertexEqs.isEmpty && q.edgePairs.isEmpty) && (chainOrder(q).nonEmpty || starCenter(q).nonEmpty)

  private def degree(q: QueryGraph, v: String): Int = q.edgesOf(v).size

  private def chainOrder(q: QueryGraph): Option[Seq[String]] = {
    val vs = q.vertices.map(_.name)
    if (q.edges.size != vs.size - 1) return None
    if (vs.count(degree(q, _) == 1) != 2 || vs.exists(degree(q, _) > 2)) return None
    var order = Vector(vs.find(degree(q, _) == 1).get)
    var usedE = Set.empty[String]
    while (order.size < vs.size) {
      val cur = order.last
      q.edgesOf(cur).find(e => !usedE(e.name)) match {
        case Some(e) =>
          usedE += e.name
          order :+= (if (e.from == cur) e.to else e.from)
        case None => return None
      }
    }
    if (order.distinct.size == vs.size) Some(order) else None
  }

  private def starCenter(q: QueryGraph): Option[String] = {
    if (q.edges.size < 2) return None
    val centers = q.vertices.map(_.name).filter(degree(q, _) == q.edges.size)
    centers.find(c => q.edges.forall(e => e.from == c || e.to == c))
  }

  /** Rows of `df` that satisfy the predicates of `q` on variable `v` alone,
    * its properties read from `df`'s columns and its ID from column `id`. */
  private def where(df: DataFrame, q: QueryGraph, v: String, id: String): DataFrame =
    q.preds.filter(p => (p.vVars ++ p.eVars) == Seq(v))
      .foldLeft(df)((d, p) => d.where(p.column((_, prop) => col(prop), _ => col(id))))

  private def edgeScan(g: PropertyGraph, q: QueryGraph, e: QEdge, outOf: Boolean): DataFrame = {
    val (key, next) = if (outOf) (Schema.Src, Schema.Dst) else (Schema.Dst, Schema.Src)
    where(g.edges, q, e.name, Schema.EdgeId).select(col(key).as("__cur"), col(next).as("__next"))
  }

  private def constrainedVertices(g: PropertyGraph, q: QueryGraph, v: String, as: String): DataFrame =
    where(g.vertices, q, v, Schema.VertexId).select(col(Schema.VertexId).as(as))

  /** Homomorphism count via multiplicity-weighted frontier expansion. */
  def count(g: PropertyGraph, q: QueryGraph): Long = {
    chainOrder(q) match {
      case Some(order) => countChain(g, q, order)
      case None =>
        starCenter(q) match {
          case Some(c) => countStar(g, q, c)
          case None => sys.error(s"${q.name}: not a chain or star — unsupported by the frontier engine")
        }
    }
  }

  private def countChain(g: PropertyGraph, q: QueryGraph, order: Seq[String]): Long = {
    var frontier = constrainedVertices(g, q, order.head, "__cur")
      .withColumn("__mult", lit(1L))
    order.sliding(2).foreach { case Seq(a, b) =>
      val e = q.edges.find(e => Set(e.from, e.to) == Set(a, b)).get
      val scan = edgeScan(g, q, e, outOf = e.from == a)
      frontier = frontier
        .join(scan, "__cur")
        .join(constrainedVertices(g, q, b, "__next"), "__next")
        .groupBy(col("__next").as("__cur"))
        .agg(sum("__mult").as("__mult"))
        .select(col("__cur"), col("__mult"))
    }
    frontier.agg(coalesce(sum("__mult"), lit(0L))).head().getLong(0)
  }

  private def countStar(g: PropertyGraph, q: QueryGraph, center: String): Long = {
    var acc = constrainedVertices(g, q, center, "__c").withColumn("__mult", lit(1L))
    q.edges.foreach { e =>
      val leaf = if (e.from == center) e.to else e.from
      val scan = edgeScan(g, q, e, outOf = e.from == center)
        .withColumnRenamed("__cur", "__c")
        .join(constrainedVertices(g, q, leaf, "__next"), "__next")
        .groupBy("__c").agg(org.apache.spark.sql.functions.count(lit(1L)).as("__bc"))
      acc = acc.join(scan, "__c")
        .select(col("__c"), (col("__mult") * col("__bc")).as("__mult"))
    }
    acc.agg(coalesce(sum("__mult"), lit(0L))).head().getLong(0)
  }
}
