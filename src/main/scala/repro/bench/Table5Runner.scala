package repro.bench

import org.apache.spark.sql.SparkSession
import repro.workloads.{Datasets, IndexConfigs, MoneyFlow}

/** Table 5 (§5.3.2/§5.4): the fraud-detection workload MF1–MF5 under D,
  * D+VB_c (city-sorted vertex-bound indexes enabling WCO-style
  * MULTI-EXTEND plans) and D+VB_c+EB_c (adds the MoneyFlow edge-bound
  * view). Runtime + model memory + |E_indexed|.
  */
object Table5Runner {

  val datasets: Seq[Datasets.DatasetDef] = Seq(Datasets.Ork, Datasets.LJ, Datasets.WT)

  def run(spark: SparkSession, scale: Double = 1.0): String =
    Bench.banner(s"Table 5: fraud detection under D / D+VB_c / D+VB_c+EB_c (scale=$scale)") +
      datasets.map { ds =>
        val g = ds.generate(spark, 1, 1, scale)
        Bench.configBlock(ds.name, g, MoneyFlow.calibrated(g), Seq(
          "D"           -> IndexConfigs.D,
          "D+VB_c"      -> (IndexConfigs.D ++ IndexConfigs.VBc),
          "D+VB_c+EB_c" -> (IndexConfigs.D ++ IndexConfigs.VBc :+ IndexConfigs.EBc(MoneyFlow.Alpha))))
      }.mkString
}
