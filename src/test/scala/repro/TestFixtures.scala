package repro

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.core.index.Catalogue
import repro.workloads.IndexConfigs

/** Shared small graphs + built index configurations, materialized once per
  * test JVM (the suites share one SparkSession, §SparkSpec).
  */
object TestFixtures {

  /** Tiny labelled graph for DuckDB-oracle checks. */
  lazy val tiny: PropertyGraph = GraphGen.generate(
    SparkSpec.shared,
    GraphSpec("tiny", nVertices = 60, nEdges = 300, nVLabels = 2, nELabels = 2,
              nCities = 5, seed = 1L)).cache()

  /** Small labelled graph for engine-vs-naive equivalence (3 vertex labels,
    * 2 edge labels). */
  lazy val labelled: PropertyGraph = GraphGen.generate(
    SparkSpec.shared,
    GraphSpec("labelled", nVertices = 200, nEdges = 1400, nVLabels = 3, nELabels = 2,
              nCities = 8, seed = 2L)).cache()

  /** Unlabelled financial graph for MagicRecs / MoneyFlow tests. */
  lazy val financial: PropertyGraph = GraphGen.generate(
    SparkSpec.shared,
    GraphSpec("financial", nVertices = 200, nEdges = 1400, nVLabels = 1, nELabels = 1,
              nCities = 6, timeMax = 1000, seed = 3L)).cache()

  val Alpha = 50.0 // 5 % amount-band on amt ∈ [1, 1000]

  lazy val labelledCat: Catalogue  = Catalogue.build(labelled)
  lazy val financialCat: Catalogue = Catalogue.build(financial)

  // Index configurations over the labelled graph (Table 3 trio).
  lazy val cfgD:  SystemConfig = SystemConfig.build("D",  labelled, IndexConfigs.D,  labelledCat)
  lazy val cfgDs: SystemConfig = SystemConfig.build("Ds", labelled, IndexConfigs.Ds, labelledCat)
  lazy val cfgDp: SystemConfig = SystemConfig.build("Dp", labelled, IndexConfigs.Dp, labelledCat)

  // Index configurations over the financial graph (Tables 4/5/6).
  lazy val finD: SystemConfig =
    SystemConfig.build("D", financial, IndexConfigs.D, financialCat)
  lazy val finDVBt: SystemConfig =
    SystemConfig.build("D+VBt", financial, IndexConfigs.D :+ IndexConfigs.VBt, financialCat)
  lazy val finDVBc: SystemConfig =
    SystemConfig.build("D+VBc", financial, IndexConfigs.D ++ IndexConfigs.VBc, financialCat)
  lazy val finDVBcEBc: SystemConfig =
    SystemConfig.build("D+VBc+EBc", financial,
      IndexConfigs.D ++ IndexConfigs.VBc :+ IndexConfigs.EBc(Alpha), financialCat)
  lazy val finDEBplain: SystemConfig =
    SystemConfig.build("D+EBmf", financial,
      IndexConfigs.D :+ IndexConfigs.EBplain(Alpha), financialCat)

  def spark: SparkSession = SparkSpec.shared
}
