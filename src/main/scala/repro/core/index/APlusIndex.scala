package repro.core.index

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.{LookupTables, PropertyGraph, Schema}

/** Cardinality statistics of a built index, used by the optimizer's i-cost. */
final case class IndexStats(entries: Long, nLists: Long) {
  /** Average length of the index's most granular lists (non-empty ones). */
  def avgListLen: Double = if (nLists == 0) 0.0 else entries.toDouble / nLists
}

/** A built A+ index: its entries, collected once to the driver from a
  * clustered DataFrame plan.
  *
  * Column contract (the dataflow analogue of the paper's physical layout):
  *  - ``bound``  — bound vertex ID (default / vertex-bound indexes)
  *  - ``boundE`` — bound edge ID (edge-bound indexes), plus ``sharedV``
  *  - ``eId``    — adjacent edge ID, ``nbr`` — neighbour vertex ID
  *  - ``adj_<p>`` / ``nbr_<p>`` — one column per partitioning/sorting key.
  *
  * ``df`` is the plan the entries were collected from, ``repartition``-ed on
  * the secondary partitioning keys and ``sortWithinPartitions``-ed on
  * (partKeys ++ sortKeys); it is not cached. The entries are held once, on
  * the driver (``tables``): an access's literal filters on partition and
  * sort keys select its granular list there, the Executor probes a hash
  * table built from that list once ([[LookupTables]]), and the memory model
  * counts its bytes over them.
  */
final case class APlusIndex(defn: IndexDefn, df: DataFrame, tables: LookupTables, stats: IndexStats) {
  def name: String = defn.name
  def isEdgeBound: Boolean = defn.isEdgeBound
  def boundCol: String = if (isEdgeBound) "boundE" else "bound"
  def hasCol(c: String): Boolean = df.columns.contains(c)
  /** Does this index materialize property `prop` of the adjacent edge? */
  def coversAdj(prop: String): Boolean = hasCol(s"adj_$prop")
  /** Does this index materialize property `prop` of the neighbour vertex? */
  def coversNbr(prop: String): Boolean = hasCol(s"nbr_$prop")
  def unpersist(): Unit = tables.destroy()
}

object APlusIndex {

  /** Build (lay out and collect) the index described by `defn`
    * over `g`: the adjacent edges with every property of each role the view
    * or the keys read, filtered by the view, keeping the ID and key columns. */
  def build(g: PropertyGraph, defn: IndexDefn, numPartitions: Int = 8): APlusIndex = {
    val (adjacent, bound, idCols) = defn.kind match {
      case EdgeBoundKind(shape) => (twoPaths(g, shape), "boundE", Seq("boundE", "sharedV", "eId", "nbr"))
      case _ =>
        val d = defn.dir
        val edges = g.edges.select((Seq(col(d.boundCol).as("bound"), col(Schema.EdgeId).as("eId"),
          col(d.nbrCol).as("nbr")) ++ roleProps(Role.Adj, Schema.EdgeProps)): _*)
        (edges, "bound", Seq("bound", "eId", "nbr"))
    }
    def reads(role: String) = defn.view.exists(_.vVars.contains(role))
    var df = adjacent
    if (defn.nbrProps.nonEmpty || reads(Role.Nbr)) df = withVertexProps(g, df, "nbr", Role.Nbr)
    if (reads(Role.Bound)) df = withVertexProps(g, df, bound, Role.Bound)
    val ids = Map(Role.Bound -> bound, Role.Adj -> "eId", Role.Nbr -> "nbr")
    df = defn.view.foldLeft(df)((d, p) =>
      d.where(p.column((role, prop) => col(s"${role}_$prop"), role => col(ids(role)))))
    layoutAndCollect(df.select((idCols ++ keyCols(defn)).map(col): _*), defn, bound, numPartitions)
  }

  private def keyCols(defn: IndexDefn): Seq[String] =
    (defn.partKeys ++ defn.sortKeys).map(_.colName).distinct

  private def layoutAndCollect(raw: DataFrame, defn: IndexDefn, bound: String,
                               numPartitions: Int): APlusIndex = {
    val pk = defn.partKeys.map(_.colName)
    val sk = defn.sortKeys.map(_.colName)
    val clustered =
      if (pk.nonEmpty) raw.repartition(numPartitions, pk.map(col): _*)
      else raw.repartition(numPartitions, col(bound))
    val ordered = clustered.sortWithinPartitions((pk ++ sk ++ Seq(bound, "nbr")).distinct.map(col): _*)
    val tables = LookupTables.collect(ordered)
    APlusIndex(defn, ordered, tables, IndexStats(tables.size, tables.groups(bound +: pk).size))
  }

  /** Columns `props` renamed ``<role>_<p>``. */
  private def roleProps(role: String, props: Seq[String]): Seq[Column] =
    props.map(p => col(p).as(s"${role}_$p"))

  /** `df` joined with the properties of the vertex in its column `id`, as
    * ``<role>_<p>`` columns. */
  private def withVertexProps(g: PropertyGraph, df: DataFrame, id: String, role: String): DataFrame = {
    val vp = g.vertices.select(
      (col(Schema.VertexId).as(s"__$role") +: roleProps(role, Schema.VertexProps)): _*)
    df.join(vp, col(id) === col(s"__$role")).drop(s"__$role")
  }

  /** The 2-paths of `shape`: bound edge ``boundE`` (its properties as
    * ``bnd_<p>``), shared vertex ``sharedV``, adjacent edge ``eId`` (its
    * properties as ``adj_<p>``) and its other end ``nbr``. */
  private def twoPaths(g: PropertyGraph, shape: EBShape): DataFrame = {
    val sharedOfB = if (shape.sharedIsDst) Schema.Dst else Schema.Src
    val eb = g.edges.select(
      (Seq(col(Schema.EdgeId).as("boundE"), col(sharedOfB).as("sharedV")) ++
        roleProps(Role.Bound, Schema.EdgeProps)): _*)

    val (adjAnchor, adjNbr) =
      if (shape.adjOutgoing) (Schema.Src, Schema.Dst) else (Schema.Dst, Schema.Src)
    val adj = g.edges.select(
      (Seq(col(Schema.EdgeId).as("eId"), col(adjAnchor).as("__anchor"), col(adjNbr).as("nbr")) ++
        roleProps(Role.Adj, Schema.EdgeProps)): _*)

    eb.join(adj, col("sharedV") === col("__anchor"))
      .drop("__anchor")
      .where(col("boundE") =!= col("eId")) // an edge is not its own 2-path partner
  }
}
