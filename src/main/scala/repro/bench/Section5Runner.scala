package repro.bench

import scala.util.Random
import repro.storage.Maintenance
import repro.storage.Maintenance._

/** §5.5's maintenance micro-benchmark (prose): load 50 % of the dataset,
  * insert the remaining 50 % one edge at a time, single-threaded, under the
  * five configurations D_s, D_p, D_ps, D_ps+VB_t, D_ps+EB_t. The paper
  * reports (LJ_{2,4}, Brk_{2,2}): 1.203M/2.108M, 1.024M/1.892M,
  * 1.081M/1.832M, 706K/1.691M, 41K/110K inserts/s.
  */
object Section5Runner {

  final case class DS(name: String, nV: Int, nE: Int, nLabels: Int)
  val datasets: Seq[DS] = Seq(DS("LJ_{2,4}", 24000, 342500, 4), DS("Brk_{2,2}", 3425, 38000, 2))

  private def edges(ds: DS, seed: Long): IndexedSeq[Edge] = {
    val r = new Random(seed)
    def skewed(): Int = (math.pow(r.nextDouble(), 2.0) * ds.nV).toInt.min(ds.nV - 1)
    (1 to ds.nE).map { i =>
      val s = skewed(); var d = skewed(); if (d == s) d = (d + 1) % ds.nV
      Edge(i.toLong, s, d, r.nextInt(ds.nLabels) + 1, r.nextInt(1000000))
    }
  }

  private def fmt(rate: Double): String =
    if (rate >= 1e6) f"${rate / 1e6}%.2fM/s" else f"${rate / 1e3}%.0fK/s"

  def run(): String = {
    val sb = new StringBuilder
    sb ++= Bench.banner("Section 5.5: single-threaded index maintenance throughput")

    // α at ~1% selectivity of the time band on time ∈ [0, 1e6)
    val cfgs: Seq[Config] = Seq(Ds, Dp, Dps, VBt, EBt(10000.0))
    val rows = for (ds <- datasets) yield {
      val es = edges(ds, 21L)
      val (init, stream) = es.splitAt(es.size / 2)
      ds.name +: cfgs.map { cfg =>
        // the first call warms the JIT (the first-run config otherwise pays
        // all compilation); the second call's trials are measured
        Maintenance.throughput(ds.nV, cfg, init, stream)
        val (_, rate) = Maintenance.throughput(ds.nV, cfg, init, stream)
        f"${fmt(rate.median)} (${rate.spread * 100}%.0f%%)"
      }
    }
    sb ++= s"\nEach cell: median inserts/s of ${Maintenance.Trials} timed trials (after one warm-up call of " +
      s"${Maintenance.Trials}) and, in brackets, their range (max - min) as a % of the median.\n"
    sb ++= Bench.table("dataset" +: cfgs.map(_.name), rows)
    val out = sb.toString
    println(out)
    out
  }
}
