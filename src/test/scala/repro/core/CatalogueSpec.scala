package repro.core

import repro.{SparkSpec, TestFixtures => F}
import repro.core.index._
import repro.core.query._

class CatalogueSpec extends SparkSpec {

  private lazy val cat = F.labelledCat

  test("counts match the graph") {
    assert(cat.nV == F.labelled.numVertices)
    assert(cat.nE == F.labelled.numEdges)
  }

  test("label fractions sum to 1") {
    assert(math.abs(cat.vLabelFrac.values.sum - 1.0) < 1e-9)
  }

  test("per-label degrees sum to the total average degree") {
    val avg = cat.nE.toDouble / cat.nV
    val fwdSum = (1 to 2).map(l => cat.listLen(Fwd, Some(l), None)).sum
    assert(math.abs(fwdSum - avg) < 1e-6)
    val bwdSum = (1 to 2).map(l => cat.listLen(Bwd, Some(l), None)).sum
    assert(math.abs(bwdSum - avg) < 1e-6)
  }

  test("conditioning on neighbour label refines the per-label degree") {
    val byLabel = cat.listLen(Fwd, Some(1), None)
    val split = (1 to 3).map(nl => cat.listLen(Fwd, Some(1), Some(nl))).sum
    assert(math.abs(split - byLabel) < 1e-6)
  }

  test("unconditioned list length is the average degree") {
    assert(math.abs(cat.listLen(Fwd, None, None) - cat.nE.toDouble / cat.nV) < 1e-6)
  }

  test("scalar selectivity: range predicates on uniform props") {
    val sel = cat.scalarSel(EdgeScalarPred("amt", Gt, 900.0))
    assert(sel > 0.05 && sel < 0.15, s"amt>900 on [1,1000] should be ~0.1, got $sel")
    val selLt = cat.scalarSel(EdgeScalarPred("amt", Lt, 900.0))
    assert(math.abs(sel + selLt - 1.0) < 1e-6)
  }

  test("pair selectivity: plain comparison ~0.5, alpha band ~alpha/range") {
    assert(cat.pairSel(EdgePairPred("e1", "date", Lt, "e2", "date")) == 0.5)
    val band = cat.pairSel(EdgePairPred("e1", "amt", Lt, "e2", "amt", 50.0))
    assert(band > 0.03 && band < 0.07, s"50-band on ~[1,1000] should be ~0.05, got $band")
  }

  test("vertex property cardinalities are recorded") {
    assert(cat.vPropCard("vLabel") == 3)
    assert(cat.vPropCard("acc") == 2)
    assert(cat.vPropSel("acc") == 0.5)
  }

  /** The catalogue recomputed in plain Scala from the collected rows: one
    * count per statistic, as separate aggregations over the vertex and edge
    * tables (a list's neighbour must be a graph vertex). */
  private def recomputed(g: PropertyGraph): Catalogue = {
    val vs = g.vertices.collect().toSeq
    val es = g.edges.collect().toSeq
    val nV = vs.size.toLong
    val label = vs.map(r => r.getAs[Long](Schema.VertexId) -> r.getAs[Int]("vLabel")).toMap
    def perV[K](rows: Seq[K]): Map[K, Double] =
      rows.groupBy(identity).map { case (k, ks) => k -> ks.size.toDouble / nV }
    val dirs = Seq[Direction](Fwd, Bwd)
    def withNbr(d: Direction) = es.filter(r => label.contains(r.getAs[Long](d.nbrCol)))
    val numeric = Seq("amt", "date", "time", "currency")
    Catalogue(
      nV = nV,
      nE = es.size.toLong,
      vLabelFrac = perV(vs.map(_.getAs[Int]("vLabel"))),
      vPropCard = Schema.VertexProps.map(p => p -> vs.map(_.getAs[Any](p)).distinct.size.toLong).toMap,
      degByLabel = dirs.flatMap(d =>
        perV(withNbr(d).map(r => (d, r.getAs[Int]("eLabel"))))).toMap,
      degByLabelNbr = dirs.flatMap(d =>
        perV(withNbr(d).map(r => (d, r.getAs[Int]("eLabel"), label(r.getAs[Long](d.nbrCol)))))).toMap,
      ePropRange = numeric.map { p =>
        val xs = es.map(_.getAs[Number](p).doubleValue)
        p -> (xs.min, xs.max)
      }.toMap)
  }

  for ((name, g) <- Seq("tiny" -> (() => F.tiny), "labelled" -> (() => F.labelled),
                        "financial" -> (() => F.financial)))
    test(s"catalogue equals a plain-Scala recomputation on the $name graph") {
      assert(Catalogue.build(g()) == recomputed(g()))
    }
}
