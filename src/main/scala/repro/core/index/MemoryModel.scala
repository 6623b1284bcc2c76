package repro.core.index

import repro.core.PropertyGraph
import repro.storage.OffsetListCodec

/** Analytic byte accounting of the paper's physical layout (§3, §4.3).
  *
  * The paper measures memory of a pointer-level in-memory engine; caching
  * DataFrames would only measure Spark's columnar overheads. Instead we
  * account bytes exactly as the paper's storage does, counting on the driver
  * over each index's entries (`APlusIndex.tables`), without a Spark job:
  *
  *  - **ID lists** (default indexes): 8 B edge ID + 4 B neighbour ID per
  *    indexed edge, plus a 4 B CSR slot per vertex, plus 4 B per secondary-
  *    partitioning slot per level.
  *  - **Offset lists** (secondary indexes): a 1-byte width header per list
  *    plus, per entry, the bytes of the largest offset into the bound
  *    vertex's default ID list (`OffsetListCodec.widthFor`). Offsets are
  *    list-level identifiable positions into that list, whose length is
  *    counted over the entries of the default index in the offsets'
  *    direction.
  *  - **Edge-bound pages** (§4.3): all bound edges whose offset lists point
  *    into vertex v's ID list share v's page; each bound edge costs an 8 B
  *    edge-ID slot in the page's first partitioning layer plus a 4 B CSR
  *    slot; nested partitioning adds 4 B per slot per level.
  *  - **Property stores** (so ratios are diluted by base data, as in the
  *    paper's whole-system Mm columns): per vertex 1 B label + 2 B city +
  *    1 B acc; per edge 8 B amt + 4 B date + 4 B time + 1 B currency.
  */
object MemoryModel {

  private val VertexPropBytes = 4L  // vLabel 1 + city 2 + acc 1
  private val EdgePropBytes   = 17L // amt 8 + date 4 + time 4 + currency 1
  private val IdEntryBytes    = 12L // edge ID 8 + neighbour ID 4
  private val SlotBytes       = 4L  // CSR / partition-layer slot

  /** Property-store bytes (shared by every configuration). */
  def baseGraphBytes(g: PropertyGraph): Long =
    g.numVertices * VertexPropBytes + g.numEdges * EdgePropBytes

  /** 4 B per distinct (bound, partKeys prefix) slot, per nesting level. */
  private def layerBytes(idx: APlusIndex, bound: String, pk: Seq[String]): Long =
    pk.indices.map(i => SlotBytes * idx.tables.groups(bound +: pk.take(i + 1)).size).sum

  def defaultIndexBytes(g: PropertyGraph, idx: APlusIndex): Long = {
    val pk = idx.defn.partKeys.map(_.colName)
    IdEntryBytes * idx.stats.entries +
      SlotBytes * g.numVertices +
      layerBytes(idx, "bound", pk)
  }

  /** Offset-list bytes: Σ over the most granular lists of `idx`, one per
    * value tuple of `listCols`, of (1 + width·len). The offsets of a list
    * address the list, in the default index `dflt`, of the vertex in its
    * first column. */
  private def offsetListBytes(idx: APlusIndex, listCols: Seq[String], dflt: APlusIndex): Long = {
    val dlen = dflt.tables.groups(Seq("bound"))
    idx.tables.groups(listCols).iterator.map { case (list, len) =>
      1L + OffsetListCodec.widthFor((dlen(list.take(1)) - 1).toInt) * len
    }.sum
  }

  /** @param dflt the default index in `idx`'s direction, which its offsets
    *  point into.
    * @param sharesLayers true when the VB view has no predicate and the same
    *  secondary partitioning as the default index, in which case only the
    *  offset lists are stored (§3 case 1). */
  def vertexBoundBytes(g: PropertyGraph, idx: APlusIndex, dflt: APlusIndex, sharesLayers: Boolean): Long = {
    val pk = idx.defn.partKeys.map(_.colName)
    val off = offsetListBytes(idx, "bound" +: pk, dflt)
    if (sharesLayers) off
    else off + SlotBytes * g.numVertices + layerBytes(idx, "bound", pk)
  }

  /** @param dflt the default index in the adjacent edges' direction, which
    *  the offsets point into. */
  def edgeBoundBytes(idx: APlusIndex, dflt: APlusIndex): Long = {
    val pk = idx.defn.partKeys.map(_.colName)
    offsetListBytes(idx, "sharedV" +: "boundE" +: pk, dflt) +
      idx.tables.groups(Seq("boundE")).size * (8L + SlotBytes) + // page edge-ID slot + CSR slot
      layerBytes(idx, "boundE", pk)
  }

  /** Bytes of one index given the configuration's default indexes: a
    * secondary index's offsets point into the default index of its
    * direction, which decides their width and whether layers are shared. */
  def indexBytes(g: PropertyGraph, idx: APlusIndex, defaults: Seq[APlusIndex]): Long = {
    lazy val dflt = {
      val d = defaults.find(_.defn.dir == idx.defn.dir)
      require(d.isDefined, s"${idx.name}: no ${idx.defn.dir} default index for its offsets to point into")
      d.get
    }
    idx.defn.kind match {
      case DefaultKind => defaultIndexBytes(g, idx)
      case VertexBoundKind =>
        vertexBoundBytes(g, idx, dflt, idx.defn.view.isEmpty && dflt.defn.partKeys == idx.defn.partKeys)
      case EdgeBoundKind(_) => edgeBoundBytes(idx, dflt)
    }
  }

  /** Whole-configuration bytes: property stores + every index. */
  def configBytes(g: PropertyGraph, indexes: Seq[APlusIndex]): Long = {
    val defaults = indexes.filter(_.defn.isDefault)
    baseGraphBytes(g) + indexes.map(indexBytes(g, _, defaults)).sum
  }
}
