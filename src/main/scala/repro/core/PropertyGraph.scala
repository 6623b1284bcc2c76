package repro.core

import org.apache.spark.sql.DataFrame

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
  * ``vertexStore`` / ``edgeStore`` hold every vertex and edge with all its
  * columns on the driver; a cached graph's ``vertices`` / ``edges`` are
  * frames over them, so the graph is held once. They are also the *property
  * store*: the engine joins against them whenever a predicate touches a
  * property that the chosen A+ index does not materialize — the dataflow
  * analogue of GraphflowDB reading a property page per matched edge ("read
  * the property and run a predicate"). Each read probes a hash table built
  * from the entries once ([[LookupTables]]).
  */
final case class PropertyGraph(vertices: DataFrame, edges: DataFrame) {

  /** The vertices' and edges' entries, collected to the driver, and the
    * lookup tables built over them. */
  lazy val vertexStore: LookupTables = LookupTables.collect(vertices)
  lazy val edgeStore: LookupTables   = LookupTables.collect(edges)

  lazy val numVertices: Long = vertexStore.size
  lazy val numEdges: Long    = edgeStore.size

  /** The graph resident in memory (every compared system gets the data
    * resident, like the paper's in-memory setting): the vertices and edges
    * collected once to the driver, as a graph whose tables are frames over
    * those entries. */
  def cache(): PropertyGraph = PropertyGraph(vertexStore.frame, edgeStore.frame)

  /** Destroy the lookup tables built over the graph's entries. */
  def uncache(): PropertyGraph = {
    vertexStore.destroy()
    edgeStore.destroy()
    this
  }
}
