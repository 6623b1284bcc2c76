package repro.storage

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import scala.util.Random

class MaintenanceSpec extends AnyFunSuite {
  import Maintenance._

  private def randomEdges(n: Int, nV: Int, seed: Long): Seq[Edge] = {
    val r = new Random(seed)
    (1 to n).map { i =>
      val s = r.nextInt(nV)
      var d = r.nextInt(nV); if (d == s) d = (d + 1) % nV
      Edge(i.toLong, s, d, r.nextInt(3) + 1, r.nextInt(1000))
    }
  }

  private val nV = 50
  private val edges = randomEdges(600, nV, 17L)

  private def checkAdjacency(st: Store): Unit = {
    val bySrc = edges.groupBy(_.src).view.mapValues(_.map(_.eId).toSet).toMap
    val byDst = edges.groupBy(_.dst).view.mapValues(_.map(_.eId).toSet).toMap
    (0 until nV).foreach { v =>
      assert(st.outEdges(v).map(_.eId).toSet == bySrc.getOrElse(v, Set.empty), s"fwd v=$v")
      assert(st.inEdges(v).map(_.eId).toSet == byDst.getOrElse(v, Set.empty), s"bwd v=$v")
    }
  }

  for (cfg <- Seq(Ds, Dp, Dps, VBt, EBt(10.0))) {
    test(s"incremental inserts preserve the adjacency under ${cfg.name}") {
      val st = new Store(nV, cfg)
      edges.foreach(st.insert)
      checkAdjacency(st)
      st.compact()
      checkAdjacency(st)
    }
  }

  test("D_s compaction sorts forward lists by neighbour ID") {
    val st = new Store(nV, Ds)
    edges.foreach(st.insert)
    st.compact()
    (0 until nV).foreach { v =>
      val ns = st.outEdges(v).map(_.dst)
      assert(ns == ns.sorted, s"v=$v not nbr-sorted: $ns")
    }
  }

  test("D_ps compaction sorts by (label, neighbour ID)") {
    val st = new Store(nV, Dps)
    edges.foreach(st.insert)
    st.compact()
    (0 until nV).foreach { v =>
      val ks = st.outEdges(v).map(e => (e.label, e.dst))
      assert(ks == ks.sorted, s"v=$v not (label,nbr)-sorted")
    }
  }

  test("VB_t keeps a complete time-sorted secondary view") {
    val st = new Store(nV, VBt)
    edges.foreach(st.insert)
    (0 until nV).foreach { v =>
      val ts = st.timeSortedOut(v)
      assert(ts.map(_.time) == ts.map(_.time).sorted, s"v=$v times unsorted")
      assert(ts.map(_.eId).toSet == edges.filter(_.src == v).map(_.eId).toSet, s"v=$v incomplete")
    }
  }

  test("EB_t lists equal the bulk-computed 2-path view") {
    val alpha = 100.0
    val st = new Store(nV, EBt(alpha))
    edges.foreach(st.insert)
    val expected: Map[Long, Set[Long]] = edges.map { eb =>
      eb.eId -> edges.filter(a =>
        a.eId != eb.eId && a.src == eb.src && eb.time < a.time + alpha).map(_.eId).toSet
    }.toMap
    edges.foreach { eb =>
      val got = st.ebt.get(eb.eId).map(_.toArray.toSet).getOrElse(Set.empty[Long])
      assert(got == expected(eb.eId), s"EB list of edge ${eb.eId}")
    }
  }

  test("throughput times Trials runs; EB_t entries equal the bulk view's") {
    val alpha  = 100.0
    val (init, stream) = edges.splitAt(300)
    val (st, rate) = throughput(nV, EBt(alpha), init, stream)
    assert(rate.trials.size == Trials && rate.trials.forall(_ > 0))
    assert(rate.trials.min <= rate.median && rate.median <= rate.trials.max)
    val bulk = edges.map(eb => edges.count(a =>
      a.eId != eb.eId && a.src == eb.src && eb.time < a.time + alpha).toLong).sum
    assert(bulk > 0 && st.ebt.valuesIterator.exists(_.size > 0))
    assert(st.ebt.valuesIterator.map(_.size.toLong).sum == bulk)
    assert(Rate(Seq(3.0, 1.0, 2.0)).median == 2.0 && Rate(Seq(3.0, 1.0, 2.0)).spread == 1.0)
  }

  for (cfg <- Seq(Ds, Dp, Dps, VBt, EBt(10.0))) {
    test(s"returned lists survive later inserts and merges under ${cfg.name}") {
      val st = new Store(nV, cfg)
      // (list, copy taken with it, vertex, merged prefix of the vertex's forward page then)
      val outs, others = scala.collection.mutable.ArrayBuffer[(Seq[Edge], List[Edge], Int, Int)]()
      edges.zipWithIndex.foreach { case (e, i) =>
        st.insert(e)
        if (i % 100 == 99) st.compact()
        val merged = st.mergedPrefix(e.src, forward = true).size
        for ((buf, seq) <- Seq(outs -> st.outEdges(e.src), others -> st.inEdges(e.dst),
                               others -> st.timeSortedOut(e.src)))
          buf += ((seq, seq.toList, e.src, merged))
      }
      st.compact()
      (outs ++ others).foreach { case (seq, copy, v, _) => assert(seq.toList == copy, s"a list of v=$v changed") }
      // Some forward lists were taken with a non-empty buffer that a later
      // merge folded into a new array.
      assert(outs.exists { case (seq, _, v, merged) =>
        merged < seq.size && st.mergedPrefix(v, forward = true).size > seq.size })
    }
  }

  /** The merged-list key of each configuration, as a tuple. */
  private def key(cfg: Config, forward: Boolean, e: Edge): (Int, Int, Long) = {
    val nbr = if (forward) e.dst else e.src
    cfg match {
      case Ds => (0, nbr, e.eId)
      case Dp => (e.label, 0, e.eId)
      case _  => (e.label, nbr, e.eId)
    }
  }

  /** A stream over hub-skewed endpoints (low IDs are hubs) with edge IDs out
    * of arrival order, and a flag per step: compact after that insert. */
  private val genStream: Gen[(Int, Seq[(Edge, Boolean)])] = for {
    nV    <- Gen.choose(2, 30)
    n     <- Gen.choose(0, 200)
    steps <- Gen.listOfN(n, for {
               us <- Gen.choose(0.0, 1.0); ud <- Gen.choose(0.0, 1.0)
               label <- Gen.choose(1, 3); time <- Gen.choose(0, 50); k <- Gen.choose(0, 9)
               compact <- Gen.frequency((1, true), (30, false))
             } yield (us, ud, label, time, k, compact))
  } yield {
    def hub(u: Double) = (u * u * nV).toInt.min(nV - 1)
    nV -> steps.zipWithIndex.map { case ((us, ud, label, time, k, compact), i) =>
      val s = hub(us); var d = hub(ud); if (d == s) d = (d + 1) % nV
      (Edge(k.toLong * (n + 1) + i, s, d, label, time), compact)
    }
  }

  for (cfg <- Seq(Ds, Dp, Dps, VBt, EBt(10.0))) {
    test(s"property: pages match an oracle with sorted prefixes under ${cfg.name}") {
      GenSamples.samples(genStream, 20).foreach { case (nV, steps) =>
        val st  = new Store(nV, cfg)
        val out = Array.fill(nV)(List.empty[Long])
        val in  = Array.fill(nV)(List.empty[Long])
        def check(step: Int): Unit = (0 until nV).foreach { v =>
          for (forward <- Seq(true, false)) {
            val ks = st.mergedPrefix(v, forward).map(key(cfg, forward, _))
            assert(ks.zip(ks.drop(1)).forall { case (a, b) => Ordering[(Int, Int, Long)].lt(a, b) },
              s"step $step v=$v forward=$forward: merged prefix unsorted")
          }
          assert(st.outEdges(v).map(_.eId).sorted == out(v).sorted, s"step $step fwd v=$v")
          assert(st.inEdges(v).map(_.eId).sorted == in(v).sorted, s"step $step bwd v=$v")
        }
        steps.zipWithIndex.foreach { case ((e, compact), i) =>
          st.insert(e); out(e.src) ::= e.eId; in(e.dst) ::= e.eId
          check(i)
          if (compact) { st.compact(); check(i) }
        }
        val es = steps.map(_._1)
        cfg match {
          case VBt => (0 until nV).foreach { v =>
            val ts = st.timeSortedOut(v)
            assert(ts.map(_.time) == ts.map(_.time).sorted && ts.map(_.eId).sorted == out(v).sorted, s"VB_t v=$v")
          }
          case EBt(alpha) => es.foreach { eb =>
            val want = es.filter(a => a.eId != eb.eId && a.src == eb.src && eb.time < a.time + alpha).map(_.eId)
            assert(st.ebt(eb.eId).toArray.toSeq.sorted == want.sorted, s"EB_t list of ${eb.eId}")
          }
          case _ => ()
        }
      }
    }
  }
}
