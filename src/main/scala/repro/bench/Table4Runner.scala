package repro.bench

import org.apache.spark.sql.SparkSession
import repro.workloads.{Datasets, IndexConfigs, MagicRecs}

/** Table 4 (§5.3.1): the MagicRecs workload under D vs D+VB_t (a secondary
  * forward vertex-bound index sorted on edge time; the time predicate has
  * 5 % selectivity). Runtime + model memory.
  */
object Table4Runner {

  /** Paper order: Brk, WT, LJ, Ork (unlabelled graphs). */
  val datasets: Seq[Datasets.DatasetDef] =
    Seq(Datasets.Brk, Datasets.WT, Datasets.LJ, Datasets.Ork)

  def run(spark: SparkSession, scale: Double = 1.0): String =
    Bench.banner(s"Table 4: MagicRecs under D vs D+VB_t (scale=$scale)") +
      datasets.map { ds =>
        val g = ds.generate(spark, 1, 1, scale)
        // 5%-selectivity recency cutoff; MR3 anchored on the two big datasets,
        // mirroring the paper's fixed-vertex subsets.
        val a1Limit =
          if (ds.name == "LJ" || ds.name == "Ork") Some((g.numVertices * 0.05).toLong.max(2L))
          else None
        Bench.configBlock(ds.name, g, MagicRecs.queries(0.95 * 1000000, a1Limit),
          Seq("D" -> IndexConfigs.D, "D+VB_t" -> (IndexConfigs.D :+ IndexConfigs.VBt)))
      }.mkString
}
