package repro.bench

import org.apache.spark.sql.SparkSession
import repro.workloads.Datasets

/** Table 2: dataset statistics. The paper's real graphs are substituted by
  * synthetic graphs at ~1/200 scale preserving the vertex:edge ratios
  * (average degrees); this runner prints ours next to the paper's.
  */
object Table2Runner {

  private val paper = Map(
    "Ork" -> ("3.0M", "117.1M", 39.03),
    "LJ"  -> ("4.8M", "68.5M", 14.27),
    "WT"  -> ("1.8M", "28.5M", 15.83),
    "Brk" -> ("685K", "7.6M", 11.09))

  def run(spark: SparkSession, scale: Double = 1.0): String = {
    val sb = new StringBuilder
    sb ++= Bench.banner(s"Table 2: datasets (synthetic, scale=$scale of the 1/200-scale specs)")
    val rows = Datasets.all.map { ds =>
      val g = ds.generate(spark, 1, 1, scale)
      val (nV, nE) = (g.numVertices, g.numEdges)
      val (pV, pE, pD) = paper(ds.name)
      val row = Seq(ds.name, nV.toString, nE.toString, f"${nE.toDouble / nV}%.2f",
                    pV, pE, f"$pD%.2f")
      g.uncache()
      row
    }
    sb ++= Bench.table(
      Seq("name", "|V| (ours)", "|E| (ours)", "avg deg (ours)",
          "|V| (paper)", "|E| (paper)", "avg deg (paper)"), rows)
    sb.toString
  }
}
