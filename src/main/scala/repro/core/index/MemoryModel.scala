package repro.core.index

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.PropertyGraph

/** Analytic byte accounting of the paper's physical layout (§3, §4.3).
  *
  * The paper measures memory of a pointer-level in-memory engine; caching
  * DataFrames would only measure Spark's columnar overheads. Instead we
  * account bytes exactly as the paper's storage does:
  *
  *  - **ID lists** (default indexes): 8 B edge ID + 4 B neighbour ID per
  *    indexed edge, plus a 4 B CSR slot per vertex, plus 4 B per secondary-
  *    partitioning slot per level.
  *  - **Offset lists** (secondary indexes): a 1-byte width header per list
  *    plus ⌈log₂₅₆(defaultListLen)⌉ bytes per entry — offsets are list-level
  *    identifiable positions into the bound vertex's default ID list.
  *  - **Edge-bound pages** (§4.3): all bound edges whose offset lists point
  *    into vertex v's ID list share v's page; each bound edge costs an 8 B
  *    edge-ID slot in the page's first partitioning layer plus a 4 B CSR
  *    slot; nested partitioning adds 4 B per slot per level.
  *  - **Property stores** (so ratios are diluted by base data, as in the
  *    paper's whole-system Mm columns): per vertex 1 B label + 2 B city +
  *    1 B acc; per edge 8 B amt + 4 B date + 4 B time + 1 B currency.
  */
object MemoryModel {

  /** Bytes needed to address one offset into a list of length `len`. */
  def offsetWidth(len: Long): Int =
    if (len <= 256L) 1 else if (len <= 65536L) 2 else if (len <= (1L << 24)) 3 else 4

  private def offsetWidthCol(len: Column): Column =
    when(len <= 256L, 1).when(len <= 65536L, 2).when(len <= (1L << 24), 3).otherwise(4)

  private val VertexPropBytes = 4L  // vLabel 1 + city 2 + acc 1
  private val EdgePropBytes   = 17L // amt 8 + date 4 + time 4 + currency 1
  private val IdEntryBytes    = 12L // edge ID 8 + neighbour ID 4
  private val SlotBytes       = 4L  // CSR / partition-layer slot

  /** Property-store bytes (shared by every configuration). */
  def baseGraphBytes(g: PropertyGraph): Long =
    g.numVertices * VertexPropBytes + g.numEdges * EdgePropBytes

  /** 4 B per distinct (bound, partKeys prefix) slot, per nesting level. */
  private def layerBytes(df: DataFrame, bound: String, pk: Seq[String]): Long =
    pk.indices.map { i =>
      SlotBytes * df.select((bound +: pk.take(i + 1)).map(col): _*).distinct().count()
    }.sum

  /** Per-vertex degree in the direction offset lists point into. */
  private def defaultListLens(g: PropertyGraph, dir: Direction): DataFrame =
    g.edges.groupBy(col(dir.boundCol).as("__dlv")).agg(count(lit(1)).as("__dlen"))

  def defaultIndexBytes(g: PropertyGraph, idx: APlusIndex): Long = {
    val pk = idx.defn.partKeys.map(_.colName)
    IdEntryBytes * idx.stats.entries +
      SlotBytes * g.numVertices +
      layerBytes(idx.df, "bound", pk)
  }

  /** Offset-list bytes: Σ over most-granular lists of (1 + width(dlen)·len). */
  private def offsetListBytes(lists: DataFrame): Long = {
    if (lists.isEmpty) return 0L
    lists
      .select((lit(1L) + offsetWidthCol(col("__dlen")).cast("long") * col("__len")).as("__b"))
      .agg(sum("__b")).head().getLong(0)
  }

  /** @param sharesLayers true when the VB view has no predicate and the same
    *  secondary partitioning as the default index, in which case only the
    *  offset lists are stored (§3 case 1). */
  def vertexBoundBytes(g: PropertyGraph, idx: APlusIndex, sharesLayers: Boolean): Long = {
    val pk = idx.defn.partKeys.map(_.colName)
    val lists = idx.df
      .groupBy(("bound" +: pk).map(col): _*).agg(count(lit(1)).as("__len"))
      .join(defaultListLens(g, idx.defn.dir), col("bound") === col("__dlv"))
    val off = offsetListBytes(lists)
    if (sharesLayers) off
    else off + SlotBytes * g.numVertices + layerBytes(idx.df, "bound", pk)
  }

  def edgeBoundBytes(g: PropertyGraph, idx: APlusIndex): Long = {
    val shape = idx.defn.kind.asInstanceOf[EdgeBoundKind].shape
    val adjDir = if (shape.adjOutgoing) Fwd else Bwd
    val pk = idx.defn.partKeys.map(_.colName)
    val lists = idx.df
      .groupBy(("boundE" +: "sharedV" +: pk).map(col): _*).agg(count(lit(1)).as("__len"))
      .join(defaultListLens(g, adjDir), col("sharedV") === col("__dlv"))
    val boundEdges = idx.df.select("boundE").distinct().count()
    offsetListBytes(lists) +
      boundEdges * (8L + SlotBytes) +           // page edge-ID slot + CSR slot
      layerBytes(idx.df, "boundE", pk)
  }

  /** Bytes of one index given the configuration's default indexes (needed to
    * decide offset-list layer sharing). */
  def indexBytes(g: PropertyGraph, idx: APlusIndex, defaults: Seq[APlusIndex]): Long =
    idx.defn.kind match {
      case DefaultKind => defaultIndexBytes(g, idx)
      case VertexBoundKind =>
        val sameDirDefault = defaults.find(_.defn.dir == idx.defn.dir)
        val shares = idx.defn.view.isEmpty &&
          sameDirDefault.exists(_.defn.partKeys == idx.defn.partKeys)
        vertexBoundBytes(g, idx, shares)
      case EdgeBoundKind(_) => edgeBoundBytes(g, idx)
    }

  /** Whole-configuration bytes: property stores + every index. */
  def configBytes(g: PropertyGraph, indexes: Seq[APlusIndex]): Long = {
    val defaults = indexes.filter(_.defn.isDefault)
    baseGraphBytes(g) + indexes.map(indexBytes(g, _, defaults)).sum
  }
}
