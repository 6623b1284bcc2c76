package repro.core

import repro.{SparkSpec, TestFixtures => F}
import repro.core.index._
import repro.core.query.{EdgePairPred, EdgeScalarPred, EScalar, Gt, Lt}
import repro.storage.{CSRGraph, OffsetListCodec}

class MemoryModelSpec extends SparkSpec {

  test("offset width grows with list length at byte boundaries") {
    // A list of length `len` is addressed by offsets up to len - 1.
    def width(len: Int) = OffsetListCodec.widthFor(len - 1)
    assert(width(1) == 1)
    assert(width(256) == 1)
    assert(width(257) == 2)
    assert(width(65536) == 2)
    assert(width(65537) == 3)
    assert(width((1 << 24) + 1) == 4)
  }

  test("default index bytes = 12B per entry + CSR + partition layer") {
    val ix = APlusIndex.build(F.tiny, IndexDefn("m", DefaultKind, Fwd,
      partKeys = Seq(Key(AdjEdge, "eLabel"))))
    val layerSlots = F.tiny.edges.select("src", "eLabel").distinct().count()
    val expected = 12L * 300 + 4L * 60 + 4L * layerSlots
    assert(MemoryModel.defaultIndexBytes(F.tiny, ix) == expected)
    ix.unpersist()
  }

  test("shared-layer vertex-bound index stores only offset lists (~1-2 B/entry)") {
    val dflt = APlusIndex.build(F.tiny, IndexDefn("d", DefaultKind, Fwd,
      partKeys = Seq(Key(AdjEdge, "eLabel"))))
    val vb = APlusIndex.build(F.tiny, IndexDefn("vb", VertexBoundKind, Fwd,
      partKeys = Seq(Key(AdjEdge, "eLabel")), sortKeys = Seq(Key(AdjEdge, "time"))))
    val b = MemoryModel.indexBytes(F.tiny, vb, Seq(dflt))
    // 300 entries, tiny degrees => 1 byte per offset + 1 byte header per list
    val nLists = vb.stats.nLists
    assert(b == 300L + nLists, s"expected ${300L + nLists} got $b")
    // far below the 12 B/entry ID-list cost
    assert(b < 12L * 300 / 2)
    dflt.unpersist(); vb.unpersist()
  }

  test("predicate vertex-bound index pays its own layers") {
    val dflt = APlusIndex.build(F.tiny, IndexDefn("d2", DefaultKind, Fwd,
      partKeys = Seq(Key(AdjEdge, "eLabel"))))
    val vb = APlusIndex.build(F.tiny, IndexDefn("vbp", VertexBoundKind, Fwd,
      partKeys = Seq(Key(AdjEdge, "eLabel")),
      view = Seq(EScalar(Role.Adj, EdgeScalarPred("amt", Gt, 500.0)))))
    val shared = MemoryModel.vertexBoundBytes(F.tiny, vb, dflt, sharesLayers = true)
    val owned  = MemoryModel.indexBytes(F.tiny, vb, Seq(dflt))
    assert(owned > shared, "a predicate view cannot share the default layers")
    dflt.unpersist(); vb.unpersist()
  }

  test("edge-bound bytes include page slots per bound edge") {
    val dflt = APlusIndex.build(F.tiny, IndexDefn("d3", DefaultKind, Fwd))
    val eb = APlusIndex.build(F.tiny, IndexDefn("eb", EdgeBoundKind(DstFwd), Fwd,
      view = Seq(EdgePairPred(Role.Bound, "date", Lt, Role.Adj, "date"))))
    val boundEdges = eb.tables.groups(Seq("boundE")).size
    val b = MemoryModel.edgeBoundBytes(eb, dflt)
    assert(b >= boundEdges * 12L, "page slots (8+4 B) per bound edge are accounted")
    assert(b >= eb.stats.entries,  "at least one offset byte per entry")
    dflt.unpersist(); eb.unpersist()
  }

  test("a secondary index without a default index in its offsets' direction is refused") {
    val vb = APlusIndex.build(F.tiny, IndexDefn("vbx", VertexBoundKind, Bwd))
    val fwd = APlusIndex.build(F.tiny, IndexDefn("dx", DefaultKind, Fwd))
    val e = intercept[IllegalArgumentException](MemoryModel.indexBytes(F.tiny, vb, Seq(fwd)))
    assert(e.getMessage.contains("vbx"))
    fwd.unpersist(); vb.unpersist()
  }

  test("default and offset-list bytes equal those of the byte-exact CSR storage") {
    val edges = F.tiny.edges.select("src", "dst", "eId", "time").collect()
    val nV = F.tiny.numVertices.toInt
    // Vertex IDs are 1-based; the CSR's are 0-based.
    val csr = CSRGraph.build(nV, edges.map(_.getLong(0).toInt - 1), edges.map(_.getLong(1).toInt - 1),
      edges.map(_.getLong(2)))
    val dflt = APlusIndex.build(F.tiny, IndexDefn("csr", DefaultKind, Fwd))
    // The CSR's `offsets` has nV + 1 slots, the last one the end of the last
    // list; the model counts one 4 B slot per vertex.
    assert(MemoryModel.defaultIndexBytes(F.tiny, dflt) == csr.idListBytes + 4L * nV)

    val vb = APlusIndex.build(F.tiny, IndexDefn("vbt", VertexBoundKind, Fwd,
      sortKeys = Seq(Key(AdjEdge, "time"))))
    val time = edges.map(r => r.getLong(2) -> r.getInt(3)).toMap
    val offsetBytes = (0 until nV).filter(csr.degree(_) > 0).map { v =>
      val list = (csr.listStart(v) until csr.listEnd(v)).sortBy(i => time(csr.eIds(i)))
      OffsetListCodec.encode(list.map(_ - csr.listStart(v)).toArray).length.toLong
    }.sum
    assert(MemoryModel.indexBytes(F.tiny, vb, Seq(dflt)) == offsetBytes)
    dflt.unpersist(); vb.unpersist()
  }

  test("configuration bytes are monotone in added secondary indexes") {
    assert(F.finDVBt.memoryBytes > F.finD.memoryBytes)
    assert(F.finDVBc.memoryBytes > F.finD.memoryBytes)
    assert(F.finDVBcEBc.memoryBytes > F.finDVBc.memoryBytes)
  }

  test("reconfiguration (D vs Ds) costs nothing; added partitioning (Dp) costs little") {
    val d  = F.cfgD.memoryBytes
    val ds = F.cfgDs.memoryBytes
    val dp = F.cfgDp.memoryBytes
    assert(ds == d, "sort-only reconfiguration has zero memory cost (paper: 1.0x)")
    assert(dp > d && dp < (d * 1.3).toLong,
      s"partitioning layer should be a minor overhead: D=$d Dp=$dp")
  }

  test("VB_t overhead is a few percent of the whole configuration (paper: ~1.08x)") {
    val ratio = F.finDVBt.memoryBytes.toDouble / F.finD.memoryBytes
    assert(ratio > 1.0 && ratio < 1.25, s"got ${ratio}x")
  }

  test("edges-indexed counts default edges plus EB entries") {
    val ebEntries = F.finDVBcEBc.store.indexes.find(_.isEdgeBound).get.stats.entries
    assert(F.finDVBcEBc.edgesIndexed == F.financial.numEdges + ebEntries)
    assert(F.finD.edgesIndexed == F.financial.numEdges)
  }
}
