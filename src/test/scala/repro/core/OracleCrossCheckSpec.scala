package repro.core

import repro.{Oracle, SparkSpec, TestFixtures => F}
import repro.core.query._

/** DuckDB cross-checks: the engine's output (under an index configuration
  * that exercises views/offset-path analogues) must equal plain SQL over the
  * raw edge/vertex tables run by an independent engine.
  *
  * The oracle registers tables with VARCHAR columns, so numeric comparisons
  * in the SQL are CAST explicitly.
  */
class OracleCrossCheckSpec extends SparkSpec {

  private lazy val tinyCat = repro.core.index.Catalogue.build(F.tiny)
  private lazy val tinyD =
    SystemConfig.build("tinyD", F.tiny, repro.workloads.IndexConfigs.D, tinyCat)
  private lazy val tinyDp =
    SystemConfig.build("tinyDp", F.tiny, repro.workloads.IndexConfigs.Dp, tinyCat)

  test("labelled 2-path equals DuckDB") {
    val q = QueryGraph("p",
      Seq(QVertex("a1"), QVertex("a2", label = Some(1)), QVertex("a3")),
      Seq(QEdge("e1", "a1", "a2", label = Some(1)), QEdge("e2", "a2", "a3", label = Some(2))))
    Oracle.assertEquivalent(
      tinyD.run(q),
      """SELECT e1.src AS a1, e1.dst AS a2, e2.dst AS a3, e1.eId AS e1, e2.eId AS e2
        |FROM edges e1, edges e2, vertices v2
        |WHERE e1.dst = e2.src AND e1.eLabel = '1' AND e2.eLabel = '2'
        |  AND v2.vId = e1.dst AND v2.vLabel = '1'""".stripMargin,
      "edges" -> F.tiny.edges, "vertices" -> F.tiny.vertices)
  }

  test("triangle under Dp equals DuckDB") {
    val q = QueryGraph("t",
      Seq(QVertex("a1", label = Some(1)), QVertex("a2", label = Some(2)), QVertex("a3")),
      Seq(QEdge("e1", "a1", "a2"), QEdge("e2", "a2", "a3"), QEdge("e3", "a1", "a3")))
    Oracle.assertEquivalent(
      tinyDp.run(q),
      """SELECT e1.src AS a1, e1.dst AS a2, e2.dst AS a3,
        |       e1.eId AS e1, e2.eId AS e2, e3.eId AS e3
        |FROM edges e1, edges e2, edges e3, vertices v1, vertices v2
        |WHERE e1.dst = e2.src AND e3.src = e1.src AND e3.dst = e2.dst
        |  AND v1.vId = e1.src AND v1.vLabel = '1'
        |  AND v2.vId = e1.dst AND v2.vLabel = '2'""".stripMargin,
      "edges" -> F.tiny.edges, "vertices" -> F.tiny.vertices)
  }

  test("time-filtered extension (MagicRecs core) equals DuckDB") {
    val q = QueryGraph("mr",
      Seq(QVertex("a1"), QVertex("a2"), QVertex("b")),
      Seq(QEdge("e1", "a1", "a2",
            scalarPreds = Seq(EdgeScalarPred("time", Gt, 500000.0))),
          QEdge("f1", "b", "a2")))
    Oracle.assertEquivalent(
      tinyD.run(q),
      """SELECT e1.src AS a1, e1.dst AS a2, f1.src AS b, e1.eId AS e1, f1.eId AS f1
        |FROM edges e1, edges f1
        |WHERE e1.dst = f1.dst AND CAST(e1.time AS DOUBLE) > 500000.0""".stripMargin,
      "edges" -> F.tiny.edges)
  }

  test("money-flow 2-edge path equals DuckDB") {
    val q = MoneyFlowOracle.query
    Oracle.assertEquivalent(
      tinyD.run(q),
      """SELECT e1.src AS a1, e1.dst AS a2, e2.dst AS a3, e1.eId AS e1, e2.eId AS e2
        |FROM edges e1, edges e2
        |WHERE e1.dst = e2.src
        |  AND CAST(e1.date AS INT) < CAST(e2.date AS INT)
        |  AND CAST(e1.amt AS DOUBLE) > CAST(e2.amt AS DOUBLE)
        |  AND CAST(e1.amt AS DOUBLE) < CAST(e2.amt AS DOUBLE) + 200.0""".stripMargin,
      "edges" -> F.tiny.edges)
  }

  test("naive evaluator itself equals DuckDB on a 4-cycle") {
    val q = QueryGraph("c4",
      Seq(QVertex("a1"), QVertex("a2"), QVertex("a3"), QVertex("a4")),
      Seq(QEdge("e1", "a1", "a2"), QEdge("e2", "a2", "a3"),
          QEdge("e3", "a3", "a4"), QEdge("e4", "a4", "a1")))
    Oracle.assertEquivalent(
      NaiveEvaluator.run(F.tiny, q),
      """SELECT e1.src AS a1, e1.dst AS a2, e2.dst AS a3, e3.dst AS a4,
        |       e1.eId AS e1, e2.eId AS e2, e3.eId AS e3, e4.eId AS e4
        |FROM edges e1, edges e2, edges e3, edges e4
        |WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e4.src
        |  AND e4.dst = e1.src""".stripMargin,
      "edges" -> F.tiny.edges)
  }
}

private object MoneyFlowOracle {
  import repro.core.query._
  val query: QueryGraph = QueryGraph("mfp",
    Seq(QVertex("a1"), QVertex("a2"), QVertex("a3")),
    Seq(QEdge("e1", "a1", "a2"), QEdge("e2", "a2", "a3")),
    edgePairs = Seq(
      EdgePairPred("e1", "date", Lt, "e2", "date"),
      EdgePairPred("e1", "amt", Gt, "e2", "amt"),
      EdgePairPred("e1", "amt", Lt, "e2", "amt", 200.0)))
}
