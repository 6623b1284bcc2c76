package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel

/** Column-name contract shared by the generator, indexes, and the engine. */
object Schema {
  /** vertices: vId LONG, vLabel INT, city INT, acc INT */
  val VertexId = "vId"
  val VertexProps: Seq[String] = Seq("vLabel", "city", "acc")

  /** edges: eId LONG, src LONG, dst LONG, eLabel INT, amt DOUBLE, date INT, time INT, currency INT */
  val EdgeId = "eId"
  val Src    = "src"
  val Dst    = "dst"
  /** Edge properties readable through the property store (includes the label so
    * un-indexed label predicates cost a property lookup, as in a GDBMS with a
    * label-agnostic adjacency layout). */
  val EdgeProps: Seq[String] = Seq("eLabel", "amt", "date", "time", "currency")
}

/** A property graph in the paper's data model: vertices and directed edges,
  * both with key-value properties.
  *
  * ``vertexProps`` / ``edgeProps`` are the *property store*: the engine joins
  * against them whenever a predicate touches a property that the chosen A+
  * index does not materialize — the dataflow analogue of GraphflowDB reading
  * a property page per matched edge ("read the property and run a predicate").
  * Their entries are held on the driver (``vertexStore`` / ``edgeStore``),
  * and each read probes a hash table built from them once ([[LookupTables]]).
  */
final case class PropertyGraph(vertices: DataFrame, edges: DataFrame) {

  /** Property-store view of the vertices, keyed by vertex ID. */
  lazy val vertexProps: DataFrame = vertices

  /** Property-store view of the edges, keyed by edge ID. */
  lazy val edgeProps: DataFrame =
    edges.selectExpr((Schema.EdgeId +: Schema.EdgeProps): _*)

  /** The property stores' entries, collected to the driver, and the lookup
    * tables built over them. */
  lazy val vertexStore: LookupTables = LookupTables.collect(vertexProps)
  lazy val edgeStore: LookupTables   = LookupTables.collect(edgeProps)

  lazy val numVertices: Long = vertexStore.size
  lazy val numEdges: Long    = edgeStore.size

  /** Pin both tables in memory (every compared system gets the data resident,
    * like the paper's in-memory setting) and materialize them by collecting
    * the property stores' entries. */
  def cache(): PropertyGraph = {
    vertices.persist(StorageLevel.MEMORY_ONLY)
    edges.persist(StorageLevel.MEMORY_ONLY)
    numVertices; numEdges
    this
  }

  /** Unpersist both tables and destroy the property stores' lookup tables. */
  def uncache(): PropertyGraph = {
    vertices.unpersist(false)
    edges.unpersist(false)
    vertexStore.destroy()
    edgeStore.destroy()
    this
  }
}
