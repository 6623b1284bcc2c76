package repro.bench

import repro.storage._

/** §3's demonstrative experiment (prose, not a numbered table): 5-hop
  * enumeration from 100 random sources on an unlabelled LiveJournal-like
  * graph, reading ID lists (i) sequentially, (ii) through list-level offset
  * indirections, and (iii) through a graph-level indirection. The paper
  * reports 6.7 s / 12.4 s / 63.3 s per query (1.85x and 9.4x vs sequential)
  * and a 1.13x memory overhead for the offset-list index vs 2x for copying.
  * Sources are drawn only from vertices with at most `maxPathsPerSource`
  * walks of `hops` edges, so that every mode enumerates all of their paths.
  */
object Section3Runner {

  def run(nV: Int = 480000, nE: Int = 6850000, sources: Int = 100, hops: Int = 5,
          maxPathsPerSource: Long = 2000000L): String = {
    val sb = new StringBuilder
    sb ++= Bench.banner(s"Section 3: offset-list indirection microbenchmark " +
      s"(nV=$nV nE=$nE sources=$sources hops=$hops cap=$maxPathsPerSource)")

    val csr = CSRGraph.random(nV, nE)
    // Sources without any path would time nothing. On this skewed graph the
    // median vertex has tens of millions of 5-walks, so few are eligible.
    val walks = IndirectionBench.walkCounts(csr, hops)
    val eligible = (0 until nV).filter(v => walks(v) > 0 && walks(v) <= maxPathsPerSource).toArray
    require(eligible.nonEmpty, s"no vertex has 1..$maxPathsPerSource $hops-walks")
    val rnd = new scala.util.Random(99L)
    val srcs = Array.fill(sources)(eligible(rnd.nextInt(eligible.length)))
    val offIdx = OffsetIndex.shuffled(csr)
    val graphI = GraphIndirection.shuffled(csr)

    // one warm-up round for JIT
    IndirectionBench.kHop(csr, IndirectionBench.Sequential, srcs.take(5), hops)
    IndirectionBench.kHop(csr, IndirectionBench.ListIndirection(offIdx), srcs.take(5), hops)
    IndirectionBench.kHop(csr, IndirectionBench.GraphLevel(graphI), srcs.take(5), hops)

    val ((cS, kS), tS) = Bench.time(
      IndirectionBench.kHop(csr, IndirectionBench.Sequential, srcs, hops))
    val ((cL, kL), tL) = Bench.time(
      IndirectionBench.kHop(csr, IndirectionBench.ListIndirection(offIdx), srcs, hops))
    val ((cG, kG), tG) = Bench.time(
      IndirectionBench.kHop(csr, IndirectionBench.GraphLevel(graphI), srcs, hops))
    require(cS == cL && cL == cG && kS == kL && kL == kG,
      s"modes disagree: counts=($cS,$cL,$cG)")
    require(cS == srcs.map(walks).sum, s"path count $cS differs from the walk counts")

    sb ++= f"\neligible sources: ${eligible.length} of $nV vertices " +
      f"(${100.0 * eligible.length / nV}%.2f %%) have 1..$maxPathsPerSource $hops-walks; " +
      s"median over all vertices ${walks.sorted.apply(nV / 2)}\n"
    val idBytes  = csr.idListBytes
    val offBytes = offIdx.offsetBytes
    sb ++= s"paths enumerated per mode: $cS in total (checksum $kS)\n"
    sb ++= Bench.table(
      Seq("mode", "time(s)", "vs sequential"),
      Seq(
        Seq("sequential ID lists", Bench.fmtSecs(tS), "(1.00x)"),
        Seq("list-level indirection", Bench.fmtSecs(tL), Bench.speedup(tL, tS)),
        Seq("graph-level indirection", Bench.fmtSecs(tG), Bench.speedup(tG, tS))))
    sb ++= f"\nmemory: ID lists ${Bench.mb(idBytes)}%.1f MB; offset-list index " +
      f"${Bench.mb(offBytes)}%.1f MB -> overhead ${(idBytes + offBytes).toDouble / idBytes}%.2fx " +
      "(copying IDs would be 2.00x)"
    val out = sb.toString
    println(out)
    out
  }
}
