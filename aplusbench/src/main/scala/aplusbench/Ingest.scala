package aplusbench

import scala.collection.mutable
import scala.util.Random
import repro.storage.Maintenance._

/** `ingest_rw`: the driver-side maintenance store under D_ps, D_ps+VB_t and
  * D_ps+EB_t. Half of a seeded LJ_{2,4}-sized stream is bulk-loaded and
  * compacted (set-up); one closed-loop client then inserts the other half
  * one edge at a time and, after every `ReadEvery` inserts, reads one
  * vertex's 2-hop neighbourhood. Reads go through the same per-vertex update
  * buffers the inserts fill, so insert and read costs trade off here.
  *
  * Each round consumes freshly loaded stores; the first `WarmRounds` rounds
  * warm the JIT and are not measured. Every configuration starts its inserts
  * from a collected heap, so the collections timed with a configuration are
  * the ones its own inserts cause. The end-to-end metrics take medians
  * across the measured rounds (see `run`), so a round slowed by the host
  * does not move them. */
object Ingest {
  val NV        = 24000
  val NE        = 342500
  val NLabels   = 4
  val ReadEvery = 25
  val WarmRounds = 1
  /** Seed of the warm-up rounds' inputs. The hot loops are compiled during
    * warm-up (in the foreground, see run.py), so inputs that are the same in
    * every run give every run the same compiled code; warmed on its own seed,
    * a run's inserts/s depended on which code that seed's profile produced. */
  val WarmSeed = 0L
  /** Stretches of the stream whose insert times are taken as medians over
    * rounds (see `run`). */
  val Segments = 50
  /** Duration of one round (set-up, inserts and reads of all three
    * configurations) on a 4-core machine; a run of `seconds` measures
    * `round(seconds / NominalRoundSeconds)` rounds, at least one. */
  val NominalRoundSeconds = 6.4
  /** α of EB_t at ~1 % selectivity of the time band on time ∈ [0, 1e6). */
  val Configs: Seq[Config] = Seq(Dps, VBt, EBt(10000.0))

  def metricId(c: Config): String = c.name.replace('+', '-')

  /** `n` seeded draws from `0 until m`, stratified: the i-th draw lies in the
    * i-th of `n` equal quantiles of `quantile`, and the draws come in a seeded
    * order. The multiset of values is thus nearly the same for every seed. */
  def stratified(r: Random, n: Int, m: Int, quantile: Double => Double): Array[Int] = {
    val a = Array.tabulate(n)(i => (quantile((i + r.nextDouble()) / n) * m).toInt.min(m - 1))
    var i = n - 1
    while (i > 0) { val j = r.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t; i -= 1 }
    a
  }

  /** The stream: skewed endpoints (low IDs are hubs), no self-loops.
    * Sources and destinations are stratified draws, so every seed gives the
    * same out- and in-degree sequence (within one edge per vertex) and the
    * seed sets which endpoints pair up, the arrival order, labels and times.
    * The hubs' degrees set most of the EB_t delta-query work; independent
    * draws let that work, and so the metrics, differ by ~10 % between seeds. */
  def stream(seed: Long, nV: Int, nE: Int): IndexedSeq[Edge] = {
    val r = new Random(seed)
    val skewed = (u: Double) => u * u
    val srcs = stratified(r, nE, nV, skewed)
    val dsts = stratified(r, nE, nV, skewed)
    (0 until nE).map { i =>
      val s = srcs(i); var d = dsts(i); if (d == s) d = (d + 1) % nV
      Edge(i + 1L, s, d, r.nextInt(NLabels) + 1, r.nextInt(1000000))
    }
  }

  private def mix(x: Long): Long = {
    var z = x * 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 31)) * 0xBF58476D1CE4E5B9L
    z ^ (z >>> 29)
  }

  /** Order-independent checksum of v's 2-hop out-neighbourhood (edges
    * reached in two forward hops) plus its in-edges; also returns the number
    * of entries read. */
  private def twoHop(first: Seq[Edge], out: Int => Seq[Edge], in: Seq[Edge]): (Long, Long) = {
    var sum = 0L; var n = 0L
    first.foreach { e1 =>
      out(e1.dst).foreach { e2 => sum += mix(e2.eId); n += 1 }
    }
    in.foreach { e => sum += mix(~e.eId); n += 1 }
    (sum * 31 + n, n + first.size)
  }

  def read(st: Store, v: Int): (Long, Long) = {
    val first = if (st.cfg == VBt) st.timeSortedOut(v) else st.outEdges(v)
    twoHop(first, st.outEdges, st.inEdges(v))
  }

  /** Expected read checksums from a plain adjacency list fed the same
    * stream: the oracle the stores are checked against. */
  def expectedReads(init: Seq[Edge], rest: Seq[Edge], readVs: Array[Int], nV: Int): Array[Long] = {
    val out = Array.fill(nV)(mutable.ArrayBuffer[Edge]())
    val in  = Array.fill(nV)(mutable.ArrayBuffer[Edge]())
    def add(e: Edge): Unit = { out(e.src) += e; in(e.dst) += e }
    init.foreach(add)
    val sums = new Array[Long](readVs.length)
    var i = 0
    rest.grouped(ReadEvery).foreach { batch =>
      batch.foreach(add)
      if (batch.size == ReadEvery) {
        sums(i) = twoHop(out(readVs(i)).toSeq, v => out(v).toSeq, in(readVs(i)).toSeq)._1
        i += 1
      }
    }
    sums
  }

  def run(rec: Record, seed: Long, seconds: Double, expect: Option[Fingerprint],
          scale: Double): Outcome = {
    val nV = math.max(64, (NV * scale).toInt)
    val nE = math.max(256, (NE * scale).toInt)
    val nReads = (nE - nE / 2) / ReadEvery
    // Read vertices are uniform over the vertices, stratified like the stream.
    def readVertices(s: Long) = stratified(new Random(s ^ 0x5DEECE66DL), nReads, nV, identity)

    var attempted, failed = 0L
    val setupTimes = mutable.ArrayBuffer[Double]()
    val loadTimes  = mutable.ArrayBuffer[Double]()
    val expectedBySeed = mutable.Map[Long, Array[Long]]()
    var ebEntries = 0L

    // Set-up: the stream plus one bulk-loaded, compacted store per config.
    def setup(rep: Int, inputSeed: Long): (IndexedSeq[Edge], IndexedSeq[Edge], Seq[Store]) = {
      System.gc() // the previous round's stores are garbage; keep their collection out of the timing
      val ((init, rest, stores), total) = rec.span(s"setup $rep") {
        val (es, _) = rec.span("stream")(stream(inputSeed, nV, nE))
        val (init, rest) = es.splitAt(es.size / 2)
        val (stores, tLoad) = rec.span("load") {
          Configs.map { c =>
            rec.span(s"load ${c.name}") {
              val st = new Store(nV, c); init.foreach(st.insert); st.compact(); st
            }._1
          }
        }
        loadTimes += tLoad
        (init, rest, stores)
      }
      setupTimes += total
      rec.event("setup", "rep" -> rep, "setup_s" -> total, "load_s" -> loadTimes.last)
      (init, rest, stores)
    }

    /** One round's samples. Arrays are per configuration (by `metricId`) in
      * stream order, so the same insert or read lines up across rounds. */
    final case class Round(insertNs: Map[String, Array[Long]], readNs: Map[String, Array[Long]],
                           readEntries: Long, readS: Map[String, Double], allocBytes: Long, gcS: Double)

    def round(r: Int, rest: IndexedSeq[Edge], stores: Seq[Store], readVs: Array[Int],
              expected: Array[Long]): Round = {
      var entries = 0L; var alloc = 0L; var gcS = 0.0
      val insertNs = mutable.Map[String, Array[Long]](); val readNs = mutable.Map[String, Array[Long]]()
      val readS = mutable.Map[String, Double]()
      val order = new Random(seed * 31 + r).shuffle(stores)
      rec.span(s"round $r") {
        order.foreach { st =>
          System.gc() // start from a collected heap: the previous configuration's garbage is not this one's cost
          val ins = new Array[Long](rest.size); val rds = new Array[Long](nReads)
          var i = 0; var insT = 0L; var readT = 0L; var k = 0
          val gc0 = Jvm.gcSeconds()
          rec.span(s"config ${st.cfg.name}") {
            rest.grouped(ReadEvery).foreach { batch =>
              val a0 = if (rec.tracing) Jvm.allocatedBytes() else 0L
              rec.span("insert batch") {
                batch.foreach { e =>
                  val t = System.nanoTime(); st.insert(e); val d = System.nanoTime() - t
                  ins(i) = d; i += 1; insT += d
                }
              }
              if (rec.tracing) alloc += Jvm.allocatedBytes() - a0
              attempted += batch.size
              if (batch.size == ReadEvery) {
                val t = System.nanoTime()
                val ((sum, n), _) = rec.span("read")(read(st, readVs(k)))
                val d = System.nanoTime() - t
                rds(k) = d; readT += d; entries += n
                attempted += 1
                if (sum != expected(k)) {
                  failed += 1
                  rec.event("read_mismatch", "round" -> r, "config" -> st.cfg.name, "read" -> k,
                    "vertex" -> readVs(k), "checksum" -> sum, "expected" -> expected(k))
                }
                k += 1
              }
            }
          }
          gcS += Jvm.gcSeconds() - gc0
          insertNs(metricId(st.cfg)) = ins; readNs(metricId(st.cfg)) = rds; readS(metricId(st.cfg)) = readT / 1e9
          st.cfg match { case EBt(_) => ebEntries = st.ebt.valuesIterator.map(_.size.toLong).sum; case _ => () }
          rec.event("ingest", "round" -> r, "config" -> st.cfg.name, "inserts" -> rest.size,
            "insert_s" -> insT / 1e9, "reads" -> k, "read_s" -> readT / 1e9)
        }
      }
      Round(insertNs.toMap, readNs.toMap, entries, readS.toMap, alloc, gcS)
    }

    // Warm-up rounds, then measured rounds: as many as `seconds` holds at
    // the nominal round time, so every run does the same work.
    val measured = mutable.ArrayBuffer[Round]()
    val rounds = math.max(1, math.round(seconds / NominalRoundSeconds).toInt)
    for (r <- 0 until WarmRounds + rounds) {
      val s = if (r < WarmRounds) WarmSeed else seed
      val (init, rest, stores) = setup(r + 1, s)
      val readVs = readVertices(s)
      val expected = expectedBySeed.getOrElseUpdate(s, expectedReads(init, rest, readVs, nV))
      val res = round(r, rest, stores, readVs, expected)
      if (r >= WarmRounds) measured += res
    }
    val expected = expectedBySeed(seed)

    val ids   = Configs.map(metricId)
    val nRest = nE - nE / 2
    // Every measured round repeats the same inserts and reads on the same
    // store states, so the end-to-end figures take medians across rounds. A
    // configuration's insert time is the sum over `Segments` equal stretches
    // of the stream of each stretch's median time: a burst of host load that
    // slows one round's stretch is left out, while a collection pause that
    // every round takes at about the same point is kept.
    def insertSeconds(c: String): Double = (0 until Segments).map { s =>
      val (from, until) = ((s.toLong * nRest / Segments).toInt, ((s + 1).toLong * nRest / Segments).toInt)
      Stats.median(measured.map(m => m.insertNs(c).slice(from, until).sum.toDouble).toSeq)
    }.sum / 1e9
    val insertS = ids.map(c => c -> insertSeconds(c)).toMap
    // A read's latency is its median over the rounds.
    val readMedNs = ids.flatMap(c => (0 until nReads).map(k => Stats.median(measured.map(_.readNs(c)(k).toDouble).toSeq)))

    val ins   = measured.flatMap(_.insertNs.values.flatten).map(_.toDouble).toArray
    val reads = measured.flatMap(_.readNs.values.flatten).map(_.toDouble).toSeq
    java.util.Arrays.sort(ins)
    def insPct(q: Double) = ins(math.min(ins.length - 1, math.max(0, math.ceil(q * ins.length).toInt - 1)))

    // Warm-up set-ups run cold code on the warm-up inputs; they are not counted.
    rec.put("setup_s", Stats.median(setupTimes.drop(WarmRounds).toSeq), "s")
    rec.put("latency_p50_ms", Stats.pct(readMedNs, 0.5) / 1e6, "ms")
    rec.put("latency_p90_ms", Stats.pct(readMedNs, 0.9) / 1e6, "ms")
    rec.put("throughput_per_s", nRest.toDouble * ids.size / insertS.values.sum, "1/s")
    rec.put("insert_p99_us", insPct(0.99) / 1e3, "us")
    rec.put("read_p99_us", Stats.pct(reads, 0.99) / 1e3, "us")
    rec.put("failed_frac", failed.toDouble / attempted, "ratio")

    rec.put("maint.load_s", Stats.median(loadTimes.drop(WarmRounds).toSeq), "s")
    ids.foreach { c =>
      rec.put(s"maint.insert_s.$c", insertS(c), "s")
      rec.put(s"maint.read_s.$c", Stats.median(measured.map(_.readS(c)).toSeq), "s")
    }
    rec.put("maint.insert_p999_us", insPct(0.999) / 1e3, "us")
    rec.put("maint.read_entries", measured.map(_.readEntries).sum.toDouble / reads.size, "count")
    rec.put("maint.eb_entries", ebEntries.toDouble, "count")
    if (rec.tracing) rec.put("jvm.alloc_bytes_per_insert", measured.map(_.allocBytes).sum.toDouble / ins.length, "B")
    rec.put("jvm.gc_s", Stats.median(measured.map(_.gcS).toSeq), "s")

    val fp = Fingerprint(nV, nE, Seq("reads" -> expected.length.toLong,
      "read_checksum" -> expected.foldLeft(17L)((a, b) => a * 31 + b)))
    val fpOk = expect.forall(f => f.vertices == nV && f.edges == nE && f.rows.toMap == fp.rows.toMap)
    Outcome(attempted, if (fpOk) failed else attempted, fp, Nil)
  }
}
