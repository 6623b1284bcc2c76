package repro.bench

import org.apache.spark.sql.SparkSession
import repro.bench.Bench.Contender
import repro.core.index.Catalogue
import repro.workloads.{Datasets, IndexConfigs, MoneyFlow}

/** Table 6 (§5.4): edge-bound index selectivity sweep on LJ — the 2-edge
  * MoneyFlow path with the α band at 25 %, 5 %, and 0.05 % selectivity,
  * under D vs D+EB. Runtime, memory, and |E_indexed| per selectivity.
  */
object Table6Runner {

  /** amt ∈ [1, 1000] uniform, so P(0 < Δamt < α) ≈ α/1000. */
  val selectivities: Seq[(String, Double)] =
    Seq("25%" -> 250.0, "5%" -> 50.0, "0.05%" -> 0.5)

  def run(spark: SparkSession, scale: Double = 1.0): String = {
    val g = Datasets.LJ.generate(spark, 1, 1, scale)
    val cat = Catalogue.build(g)
    val head = Bench.banner(s"Table 6: EB selectivity sweep on LJ (scale=$scale)") +
      s"\n(|V|=${g.numVertices} |E|=${g.numEdges})\n"

    val header = Seq("selectivity", "D(s)", "D+EB(s)", "speedup",
                     "Mm D(MB)", "Mm D+EB(MB)", "|E_indexed|")
    val rows = selectivities.map { case (label, alpha) =>
      val Seq(d, eb) = Bench.compare(Seq(MoneyFlow.twoEdgePath(alpha)), Seq(
        Contender.config("D", g, IndexConfigs.D, cat),
        Contender.config("D+EB", g, IndexConfigs.D :+ IndexConfigs.EBplain(alpha), cat)))
      val (tD, tEB) = (d.secs.head, eb.secs.head)
      Seq(label, Bench.fmtSecs(tD), Bench.fmtSecs(tEB),
          Bench.factor(tD, tEB, d.counts.head),
          f"${Bench.mb(d.memoryBytes)}%.1f",
          f"${Bench.mb(eb.memoryBytes)}%.1f (${eb.memoryBytes.toDouble / d.memoryBytes}%.2fx)",
          eb.edgesIndexed.toString)
    }
    g.uncache()
    head + Bench.table(header, rows)
  }
}
