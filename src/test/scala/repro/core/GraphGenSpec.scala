package repro.core

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestFixtures => F}

class GraphGenSpec extends SparkSpec {

  test("generator is deterministic in the spec") {
    val spec = GraphSpec("det", 100, 500, nVLabels = 3, nELabels = 2, seed = 9L)
    val g1 = GraphGen.generate(spark, spec)
    val g2 = GraphGen.generate(spark, spec)
    assert(g1.edges.collect().toSeq == g2.edges.collect().toSeq)
    assert(g1.vertices.collect().toSeq == g2.vertices.collect().toSeq)
  }

  test("generator does not depend on the session's leaf parallelism") {
    val spec = GraphSpec("leaf", 300, 2000, nVLabels = 3, nELabels = 2, seed = 43L)
    def sorted(g: PropertyGraph) =
      (g.vertices.orderBy("vId").collect().toSeq, g.edges.orderBy("eId").collect().toSeq)
    val key = "spark.sql.leafNodeDefaultParallelism"
    val before = spark.conf.getOption(key)
    val atDefault = sorted(GraphGen.generate(spark, spec))
    spark.conf.set(key, "3")
    val atThree = try sorted(GraphGen.generate(spark, spec))
      finally before.fold(spark.conf.unset(key))(spark.conf.set(key, _))
    assert(atThree == atDefault)
  }

  test("vertex and edge counts match the spec") {
    assert(F.tiny.numVertices == 60)
    assert(F.tiny.numEdges == 300)
  }

  test("no self loops") {
    assert(F.labelled.edges.where(col("src") === col("dst")).count() == 0)
  }

  test("endpoints are valid vertex IDs") {
    val n = F.labelled.numVertices
    assert(F.labelled.edges
      .where(col("src") < 1 || col("src") > n || col("dst") < 1 || col("dst") > n)
      .count() == 0)
  }

  test("labels are within the configured ranges") {
    assert(F.labelled.vertices.where(col("vLabel") < 1 || col("vLabel") > 3).count() == 0)
    assert(F.labelled.edges.where(col("eLabel") < 1 || col("eLabel") > 2).count() == 0)
  }

  test("every vertex label appears (labels are usable as predicates)") {
    assert(F.labelled.vertices.select("vLabel").distinct().count() == 3)
  }

  test("financial properties are in range") {
    val e = F.financial.edges
    assert(e.where(col("amt") < 1 || col("amt") > 1000).count() == 0)
    assert(e.where(col("date") < 0 || col("date") >= 1825).count() == 0)
    assert(e.where(col("time") < 0 || col("time") >= 1000).count() == 0)
    val v = F.financial.vertices
    assert(v.where(col("acc") < 1 || col("acc") > 2).count() == 0)
    assert(v.where(col("city") < 1 || col("city") > 6).count() == 0)
  }

  test("edge IDs are unique and dense from 1") {
    val ids = F.tiny.edges.select("eId").collect().map(_.getLong(0)).sorted
    assert(ids.toSeq == (1L to 300L))
  }

  test("degree distribution is skewed (head vertex much above average)") {
    val degs = F.labelled.edges.groupBy("src").count()
      .collect().map(_.getLong(1))
    val avg = degs.sum.toDouble / F.labelled.numVertices
    assert(degs.max > 4 * avg, s"max=${degs.max} avg=$avg — expected a skewed head")
  }

  test("property store views expose the expected columns") {
    assert(F.tiny.edgeStore.columns ==
      Seq("eId", "src", "dst", "eLabel", "amt", "date", "time", "currency"))
    assert(F.tiny.vertexStore.columns == Seq("vId", "vLabel", "city", "acc"))
    assert(F.tiny.edges.columns.toSeq == F.tiny.edgeStore.columns)
    assert(F.tiny.vertices.columns.toSeq == F.tiny.vertexStore.columns)
  }
}
