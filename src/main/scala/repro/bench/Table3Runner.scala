package repro.bench

import org.apache.spark.sql.SparkSession
import repro.bench.Bench.Setting
import repro.workloads.{Datasets, IndexConfigs, SubgraphQueries}

/** Table 3 (§5.2): default A+ index reconfiguration — D vs D_s vs D_p on the
  * labelled subgraph workload SQ1–SQ13, per dataset; runtime + model memory.
  */
object Table3Runner {

  val settings: Seq[Setting] = Seq(
    Setting(Datasets.Ork, 8, 2),
    Setting(Datasets.LJ, 2, 4),
    Setting(Datasets.WT, 4, 2),
    Setting(Datasets.Brk, 2, 2),
  )

  def run(spark: SparkSession, scale: Double = 1.0): String =
    Bench.banner(s"Table 3: default A+ index reconfiguration (scale=$scale)") +
      settings.map { s =>
        Bench.configBlock(s.label, s.generate(spark, scale), SubgraphQueries.forLabels(s.nVL, s.nEL),
          Seq("D" -> IndexConfigs.D, "D_s" -> IndexConfigs.Ds, "D_p" -> IndexConfigs.Dp))
      }.mkString
}
