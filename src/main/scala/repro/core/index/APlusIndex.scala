package repro.core.index

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.core.{Cmp, PropertyGraph, Schema}

/** Cardinality statistics of a built index, used by the optimizer's i-cost. */
final case class IndexStats(entries: Long, nLists: Long) {
  /** Average length of the index's most granular lists (non-empty ones). */
  def avgListLen: Double = if (nLists == 0) 0.0 else entries.toDouble / nLists
}

/** A built A+ index: a materialized, clustered, cached DataFrame.
  *
  * Column contract (the dataflow analogue of the paper's physical layout):
  *  - ``bound``  — bound vertex ID (default / vertex-bound indexes)
  *  - ``boundE`` — bound edge ID (edge-bound indexes), plus ``sharedV``
  *  - ``eId``    — adjacent edge ID, ``nbr`` — neighbour vertex ID
  *  - ``adj_<p>`` / ``nbr_<p>`` — one column per partitioning/sorting key.
  *
  * The DataFrame is ``repartition``-ed on the secondary partitioning keys and
  * ``sortWithinPartitions``-ed on (partKeys ++ sortKeys), so literal filters
  * on partition keys and range filters on sort keys prune cached in-memory
  * batches — the analogue of constant-time granular-list access and of
  * binary search inside sorted ID lists.
  */
final case class APlusIndex(defn: IndexDefn, df: DataFrame, stats: IndexStats) {
  def name: String = defn.name
  def isEdgeBound: Boolean = defn.isEdgeBound
  def boundCol: String = if (isEdgeBound) "boundE" else "bound"
  def hasCol(c: String): Boolean = df.columns.contains(c)
  /** Does this index materialize property `prop` of the adjacent edge? */
  def coversAdj(prop: String): Boolean = hasCol(s"adj_$prop")
  /** Does this index materialize property `prop` of the neighbour vertex? */
  def coversNbr(prop: String): Boolean = hasCol(s"nbr_$prop")
  def unpersist(): Unit = df.unpersist(false)
}

object APlusIndex {

  /** Build (materialize + cache) the index described by `defn` over `g`. */
  def build(g: PropertyGraph, defn: IndexDefn, numPartitions: Int = 8): APlusIndex =
    defn.kind match {
      case DefaultKind | VertexBoundKind => buildVertexPartitioned(g, defn, numPartitions)
      case EdgeBoundKind(shape)          => buildEdgeBound(g, defn, shape, numPartitions)
    }

  private def keyCols(defn: IndexDefn): Seq[String] =
    (defn.partKeys ++ defn.sortKeys).map(_.colName).distinct

  private def layoutAndCache(raw: DataFrame, defn: IndexDefn, bound: String,
                             numPartitions: Int): APlusIndex = {
    val pk = defn.partKeys.map(_.colName)
    val sk = defn.sortKeys.map(_.colName)
    val clustered =
      if (pk.nonEmpty) raw.repartition(numPartitions, pk.map(col): _*)
      else raw.repartition(numPartitions, col(bound))
    val ordered = clustered
      .sortWithinPartitions((pk ++ sk ++ Seq(bound, "nbr")).distinct.map(col): _*)
      .persist(StorageLevel.MEMORY_ONLY)
    val entries = ordered.count()
    val nLists = ordered.select((bound +: pk).map(col): _*).distinct().count()
    APlusIndex(defn, ordered, IndexStats(entries, nLists))
  }

  private def buildVertexPartitioned(g: PropertyGraph, defn: IndexDefn,
                                     numPartitions: Int): APlusIndex = {
    val d = defn.dir
    val adjProps =
      (defn.adjProps ++ defn.viewPreds.collect { case ScalarViewPred(OnAdjEdge, p, _, _) => p }).distinct
    val nbrProps =
      (defn.nbrProps ++ defn.viewPreds.collect { case ScalarViewPred(OnNbrVertex, p, _, _) => p }).distinct
    val boundProps =
      defn.viewPreds.collect { case ScalarViewPred(OnBoundVertex, p, _, _) => p }.distinct

    var df = g.edges.select(
      (Seq(col(d.boundCol).as("bound"), col(Schema.EdgeId).as("eId"), col(d.nbrCol).as("nbr")) ++
        adjProps.map(p => col(p).as(s"adj_$p"))): _*)

    if (nbrProps.nonEmpty) {
      val vp = g.vertices.select(
        (col(Schema.VertexId).as("__nv") +: nbrProps.map(p => col(p).as(s"nbr_$p"))): _*)
      df = df.join(vp, col("nbr") === col("__nv")).drop("__nv")
    }
    if (boundProps.nonEmpty) {
      val vp = g.vertices.select(
        (col(Schema.VertexId).as("__bv") +: boundProps.map(p => col(p).as(s"bnd_$p"))): _*)
      df = df.join(vp, col("bound") === col("__bv")).drop("__bv")
    }

    defn.viewPreds.foreach { vp =>
      val c = vp.target match {
        case OnAdjEdge     => col(s"adj_${vp.prop}")
        case OnNbrVertex   => col(s"nbr_${vp.prop}")
        case OnBoundVertex => col(s"bnd_${vp.prop}")
      }
      df = df.where(Cmp(c, vp.op, lit(vp.value)))
    }

    val outCols = Seq("bound", "eId", "nbr") ++ keyCols(defn)
    layoutAndCache(df.select(outCols.map(col): _*), defn, "bound", numPartitions)
  }

  private def buildEdgeBound(g: PropertyGraph, defn: IndexDefn, shape: EBShape,
                             numPartitions: Int): APlusIndex = {
    val bProps = defn.pairPreds.map(_.bProp).distinct
    val aProps = (defn.adjProps ++ defn.pairPreds.map(_.adjProp)).distinct

    val sharedOfB = if (shape.sharedIsDst) Schema.Dst else Schema.Src
    val eb = g.edges.select(
      (Seq(col(Schema.EdgeId).as("boundE"), col(sharedOfB).as("sharedV")) ++
        bProps.map(p => col(p).as(s"b_$p"))): _*)

    val (adjAnchor, adjNbr) =
      if (shape.adjOutgoing) (Schema.Src, Schema.Dst) else (Schema.Dst, Schema.Src)
    val adj = g.edges.select(
      (Seq(col(Schema.EdgeId).as("eId"), col(adjAnchor).as("__anchor"),
           col(adjNbr).as("nbr")) ++
        aProps.map(p => col(p).as(s"adj_$p"))): _*)

    var df = eb
      .join(adj, col("sharedV") === col("__anchor"))
      .drop("__anchor")
      .where(col("boundE") =!= col("eId")) // an edge is not its own 2-path partner
    defn.pairPreds.foreach { pp =>
      df = df.where(Cmp(col(s"b_${pp.bProp}"), pp.op, col(s"adj_${pp.adjProp}") + lit(pp.delta)))
    }

    val nbrProps = defn.nbrProps
    if (nbrProps.nonEmpty) {
      val vp = g.vertices.select(
        (col(Schema.VertexId).as("__nv") +: nbrProps.map(p => col(p).as(s"nbr_$p"))): _*)
      df = df.join(vp, col("nbr") === col("__nv")).drop("__nv")
    }

    val outCols = Seq("boundE", "sharedV", "eId", "nbr") ++ keyCols(defn)
    layoutAndCache(df.select(outCols.map(col): _*), defn, "boundE", numPartitions)
  }
}
