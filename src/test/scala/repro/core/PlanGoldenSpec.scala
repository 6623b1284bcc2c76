package repro.core

import scala.io.Source
import repro.{SparkSpec, TestFixtures => F}
import repro.core.query.QueryGraph
import repro.workloads.{MagicRecs, MoneyFlow, SubgraphQueries}

/** The plan the optimizer picks, its estimated i-cost and the engine's row
  * count, per fixture (query, configuration) pair, equal to the recorded
  * `plans.golden`. A refactor of the optimizer, the INDEX STORE or the
  * Executor that should not change plans keeps this suite green. */
class PlanGoldenSpec extends SparkSpec {
  import PlanGoldenSpec._

  private val golden: Map[(String, String), String] =
    Source.fromResource("plans.golden").getLines().filter(_.nonEmpty).map { l =>
      val Array(q, cfg, rest) = l.split("\t", 3)
      (q, cfg) -> rest
    }.toMap

  test("plans.golden records exactly the fixture pairs") {
    assert(golden.keySet == pairs.map { case (q, c, _) => (q.name, c) }.toSet)
  }

  for ((q, name, cfg) <- pairs) {
    test(s"${q.name} under $name: plan, i-cost and row count are the recorded ones") {
      assert(line(q, cfg()) == s"${q.name}\t$name\t${golden((q.name, name))}")
    }
  }
}

object PlanGoldenSpec {

  /** Every fixture pair (query, configuration name, configuration):
    * SQ1–SQ13 on `labelled`, MR1–MR3, MF1–MF5 and the MF 2-edge path on
    * `financial`, each under the configurations of the engine-correctness
    * suite. */
  val pairs: Seq[(QueryGraph, String, () => SystemConfig)] = {
    def under(qs: Seq[QueryGraph], cfgs: (String, () => SystemConfig)*) =
      for (q <- qs; (n, c) <- cfgs) yield (q, n, c)
    under(SubgraphQueries.forLabels(nVLabels = 3, nELabels = 2),
      "D" -> (() => F.cfgD), "Ds" -> (() => F.cfgDs), "Dp" -> (() => F.cfgDp)) ++
    under(MagicRecs.queries(timeThreshold = 800, a1Limit = Some(150L)),
      "D" -> (() => F.finD), "D+VBt" -> (() => F.finDVBt)) ++
    under(MoneyFlow.queries(alpha = F.Alpha, nV = 200, idLtFrac = 0.5),
      "D" -> (() => F.finD), "D+VBc" -> (() => F.finDVBc), "D+VBc+EBc" -> (() => F.finDVBcEBc)) ++
    under(Seq(MoneyFlow.twoEdgePath(F.Alpha)),
      "D" -> (() => F.finD), "D+EBmf" -> (() => F.finDEBplain))
  }

  /** `query, configuration, Plan.describe, estCost, row count`, tab-separated. */
  def line(q: QueryGraph, cfg: SystemConfig): String = {
    val p = cfg.plan(q)
    Seq(q.name, cfg.name, p.describe, p.estCost.toString, cfg.count(q).toString).mkString("\t")
  }
}
