package repro.core

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestFixtures => F}
import repro.core.index._
import repro.core.query.{EdgePairPred, EdgeScalarPred, EScalar, Gt, Lt, VProp}

class IndexBuildSpec extends SparkSpec {

  private def rows(df: org.apache.spark.sql.DataFrame): Set[Seq[Any]] = {
    val cols = df.columns.sorted
    df.select(cols.head, cols.tail: _*).collect().map(_.toSeq).toSet
  }

  test("default forward index contains exactly the edges, bound by src") {
    val ix = APlusIndex.build(F.tiny, IndexDefn("f", DefaultKind, Fwd,
      partKeys = Seq(Key(AdjEdge, "eLabel"))))
    val expected = F.tiny.edges.select(
      col("src").as("bound"), col("eId"), col("dst").as("nbr"), col("eLabel").as("adj_eLabel"))
    assert(rows(ix.tables.frame) == rows(expected))
    assert(ix.stats.entries == F.tiny.numEdges)
    ix.unpersist()
  }

  test("default backward index binds by dst") {
    val ix = APlusIndex.build(F.tiny, IndexDefn("b", DefaultKind, Bwd,
      partKeys = Seq(Key(AdjEdge, "eLabel"))))
    val expected = F.tiny.edges.select(
      col("dst").as("bound"), col("eId"), col("src").as("nbr"), col("eLabel").as("adj_eLabel"))
    assert(rows(ix.tables.frame) == rows(expected))
    ix.unpersist()
  }

  test("neighbour-key columns are joined in from the vertex table") {
    val ix = APlusIndex.build(F.tiny, IndexDefn("n", DefaultKind, Fwd,
      partKeys = Seq(Key(AdjEdge, "eLabel"), Key(NbrVertex, "vLabel"))))
    assert(ix.hasCol("nbr_vLabel") && ix.coversNbr("vLabel") && ix.coversAdj("eLabel"))
    val bad = ix.tables.frame.join(
      F.tiny.vertices.select(col("vId").as("nbr"), col("vLabel").as("expect")), "nbr")
      .where(col("nbr_vLabel") =!= col("expect")).count()
    assert(bad == 0)
    ix.unpersist()
  }

  test("vertex-bound view with an adjacent-edge predicate stores exactly the matching edges") {
    val ix = APlusIndex.build(F.tiny, IndexDefn("hi", VertexBoundKind, Fwd,
      view = Seq(EScalar(Role.Adj, EdgeScalarPred("amt", Gt, 500.0)))))
    assert(ix.stats.entries == F.tiny.edges.where(col("amt") > 500.0).count())
    assert(ix.stats.entries > 0 && ix.stats.entries < F.tiny.numEdges)
    ix.unpersist()
  }

  test("vertex-bound view with a neighbour predicate filters on the neighbour") {
    val ix = APlusIndex.build(F.tiny, IndexDefn("nv", VertexBoundKind, Fwd,
      view = Seq(VProp(Role.Nbr, "acc", 1))))
    val expected = F.tiny.edges
      .join(F.tiny.vertices.select(col("vId").as("dst"), col("acc")), "dst")
      .where(col("acc") === 1).count()
    assert(ix.stats.entries == expected)
    ix.unpersist()
  }

  test("vertex-bound view with a bound-vertex predicate filters on the source") {
    val ix = APlusIndex.build(F.tiny, IndexDefn("bv", VertexBoundKind, Fwd,
      view = Seq(VProp(Role.Bound, "acc", 2))))
    val expected = F.tiny.edges
      .join(F.tiny.vertices.select(col("vId").as("src"), col("acc")), "src")
      .where(col("acc") === 2).count()
    assert(ix.stats.entries == expected)
    ix.unpersist()
  }

  private def ebExpected(sharedIsDst: Boolean, adjOutgoing: Boolean): Long = {
    val e = F.tiny.edges
    val b = e.select(col("eId").as("bid"),
      col(if (sharedIsDst) "dst" else "src").as("sh"), col("date").as("bdate"))
    val a = e.select(col("eId").as("aid"),
      col(if (adjOutgoing) "src" else "dst").as("sh"), col("date").as("adate"))
    b.join(a, "sh").where(col("bid") =!= col("aid"))
      .where(col("bdate") < col("adate")).count()
  }

  for ((shape, name) <- Seq(DstFwd -> "DstFwd", DstBwd -> "DstBwd",
                            SrcFwd -> "SrcFwd", SrcBwd -> "SrcBwd")) {
    test(s"edge-bound $name view equals the filtered 2-path self-join") {
      val ix = APlusIndex.build(F.tiny, IndexDefn(name, EdgeBoundKind(shape), Fwd,
        view = Seq(EdgePairPred(Role.Bound, "date", Lt, Role.Adj, "date"))))
      assert(ix.stats.entries == ebExpected(shape.sharedIsDst, shape.adjOutgoing))
      assert(ix.hasCol("boundE") && ix.hasCol("sharedV"))
      ix.unpersist()
    }
  }

  test("edge-bound alpha band keeps only in-band pairs") {
    val a = 100.0
    val ix = APlusIndex.build(F.tiny, IndexDefn("band", EdgeBoundKind(DstFwd), Fwd,
      view = Seq(EdgePairPred(Role.Bound, "amt", Gt, Role.Adj, "amt"),
        EdgePairPred(Role.Bound, "amt", Lt, Role.Adj, "amt", a))))
    val e = F.tiny.edges
    val b = e.select(col("eId").as("bid"), col("dst").as("sh"), col("amt").as("bamt"))
    val ad = e.select(col("eId").as("aid"), col("src").as("sh"), col("amt").as("aamt"))
    val expected = b.join(ad, "sh").where(col("bid") =!= col("aid"))
      .where(col("bamt") > col("aamt") && col("bamt") < col("aamt") + a).count()
    assert(ix.stats.entries == expected)
    ix.unpersist()
  }

  test("edge-bound indexes materialize declared neighbour sort keys") {
    val ix = APlusIndex.build(F.tiny, IndexDefn("ebs", EdgeBoundKind(DstFwd), Fwd,
      partKeys = Seq(Key(NbrVertex, "acc")), sortKeys = Seq(Key(NbrVertex, "city")),
      view = Seq(EdgePairPred(Role.Bound, "date", Lt, Role.Adj, "date"))))
    assert(ix.coversNbr("acc") && ix.coversNbr("city"))
    ix.unpersist()
  }

  test("stats: nLists counts (bound × partition) groups") {
    val ix = APlusIndex.build(F.tiny, IndexDefn("st", DefaultKind, Fwd,
      partKeys = Seq(Key(AdjEdge, "eLabel"))))
    val expected = F.tiny.edges.select("src", "eLabel").distinct().count()
    assert(ix.stats.nLists == expected)
    assert(ix.stats.avgListLen == ix.stats.entries.toDouble / expected)
    ix.unpersist()
  }

  test("index definitions validate their shape") {
    intercept[IllegalArgumentException] {
      IndexDefn("badEB", EdgeBoundKind(DstFwd), Fwd) // EB requires pair predicates
    }
    intercept[IllegalArgumentException] {
      IndexDefn("badD", DefaultKind, Fwd,
        view = Seq(EScalar(Role.Adj, EdgeScalarPred("amt", Gt, 1.0))))
    }
  }
}
