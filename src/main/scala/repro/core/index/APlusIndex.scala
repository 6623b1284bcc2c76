package repro.core.index

import scala.annotation.unused
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.{LookupTables, PropertyGraph, Schema}

/** Cardinality statistics of a built index, used by the optimizer's i-cost. */
final case class IndexStats(entries: Long, nLists: Long)

/** A built A+ index: its entries, collected once to the driver.
  *
  * Column contract (the dataflow analogue of the paper's physical layout):
  *  - ``bound``  — bound vertex ID (default / vertex-bound indexes)
  *  - ``boundE`` — bound edge ID (edge-bound indexes), plus ``sharedV``
  *  - ``eId``    — adjacent edge ID, ``nbr`` — neighbour vertex ID
  *  - ``adj_<p>`` / ``nbr_<p>`` — one column per partitioning/sorting key.
  *
  * The entries are held once, on the driver (``tables``), in no particular
  * order: an access's literal filters on partition and sort keys select its
  * granular lists there, a query probes a list table built from them once
  * ([[LookupTables]]), and the memory model counts its bytes over them.
  */
final case class APlusIndex(defn: IndexDefn, tables: LookupTables, stats: IndexStats) {
  def name: String = defn.name
  def isEdgeBound: Boolean = defn.isEdgeBound
  def boundCol: String = if (isEdgeBound) "boundE" else "bound"
  def hasCol(c: String): Boolean = tables.columns.contains(c)
  /** Does this index materialize property `prop` of the adjacent edge? */
  def coversAdj(prop: String): Boolean = hasCol(s"adj_$prop")
  /** Does this index materialize property `prop` of the neighbour vertex? */
  def coversNbr(prop: String): Boolean = hasCol(s"nbr_$prop")
  def unpersist(): Unit = tables.destroy()
}

object APlusIndex {

  /** Build and collect the index described by `defn` over `g`: the adjacent
    * edges with every property of each role the view or the keys read,
    * filtered by the view, keeping the ID and key columns. `numPartitions`
    * is unused; the benchmark harness still passes it. */
  def build(g: PropertyGraph, defn: IndexDefn, @unused numPartitions: Int = 0): APlusIndex = {
    // the adjacent edges, bound at their end in the index's direction
    val edges = g.edges.select((Seq(col(defn.dir.boundCol).as("bound"), col(Schema.EdgeId).as("eId"),
      col(defn.dir.nbrCol).as("nbr")) ++ roleProps(Role.Adj, Schema.EdgeProps)): _*)
    val (adjacent, bound, idCols) = defn.kind match {
      case EdgeBoundKind(shape) => (twoPaths(g, shape, edges), "boundE", Seq("boundE", "sharedV", "eId", "nbr"))
      case _                    => (edges, "bound", Seq("bound", "eId", "nbr"))
    }
    def reads(role: String) = defn.view.exists(_.vVars.contains(role))
    var df = adjacent
    if (defn.nbrProps.nonEmpty || reads(Role.Nbr)) df = withVertexProps(g, df, "nbr", Role.Nbr)
    if (reads(Role.Bound)) df = withVertexProps(g, df, bound, Role.Bound)
    val ids = Map(Role.Bound -> bound, Role.Adj -> "eId", Role.Nbr -> "nbr")
    df = defn.view.foldLeft(df)((d, p) =>
      d.where(p.column((role, prop) => col(s"${role}_$prop"), role => col(ids(role)))))
    val keyCols = (defn.partKeys ++ defn.sortKeys).map(_.colName).distinct
    val tables = LookupTables.collect(df.select((idCols ++ keyCols).map(col): _*))
    APlusIndex(defn, tables, IndexStats(tables.size, tables.groups(bound +: defn.partKeys.map(_.colName)).size))
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
    * ``bnd_<p>``), shared vertex ``sharedV``, and the adjacent edge of
    * `adjacent` bound to that vertex, ``eId`` (its properties as
    * ``adj_<p>``) with its other end ``nbr``. */
  private def twoPaths(g: PropertyGraph, shape: EBShape, adjacent: DataFrame): DataFrame = {
    val sharedOfB = if (shape.sharedIsDst) Schema.Dst else Schema.Src
    val eb = g.edges.select(
      (Seq(col(Schema.EdgeId).as("boundE"), col(sharedOfB).as("sharedV")) ++
        roleProps(Role.Bound, Schema.EdgeProps)): _*)
    eb.join(adjacent, col("sharedV") === col("bound"))
      .drop("bound")
      .where(col("boundE") =!= col("eId")) // an edge is not its own 2-path partner
  }
}
