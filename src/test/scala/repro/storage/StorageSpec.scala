package repro.storage

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import org.scalacheck.rng.Seed

/** Deterministic sampling bridge (no scalatestplus jar offline): draw `n`
  * samples from a ScalaCheck generator with fixed seeds. */
object GenSamples {
  def samples[A](g: Gen[A], n: Int = 50): Seq[A] =
    (0 until n).flatMap(i => g.apply(Gen.Parameters.default, Seed(i.toLong)))
}

class OffsetListCodecSpec extends AnyFunSuite {
  import GenSamples.samples

  test("width boundaries") {
    assert(OffsetListCodec.widthFor(0) == 1)
    assert(OffsetListCodec.widthFor(255) == 1)
    assert(OffsetListCodec.widthFor(256) == 2)
    assert(OffsetListCodec.widthFor(65535) == 2)
    assert(OffsetListCodec.widthFor(65536) == 3)
    assert(OffsetListCodec.widthFor((1 << 24) - 1) == 3)
    assert(OffsetListCodec.widthFor(1 << 24) == 4)
  }

  test("empty list encodes to a lone header byte") {
    val enc = OffsetListCodec.encode(Array.empty)
    assert(enc.length == 1 && OffsetListCodec.length(enc) == 0)
  }

  test("encode/decode round-trips (property)") {
    samples(Gen.listOf(Gen.chooseNum(0, 1 << 25))).foreach { xs =>
      val a = xs.toArray
      assert(OffsetListCodec.decode(OffsetListCodec.encode(a)).toSeq == a.toSeq)
    }
  }

  test("random access get matches decode (property)") {
    samples(Gen.nonEmptyListOf(Gen.chooseNum(0, 70000))).foreach { xs =>
      val enc = OffsetListCodec.encode(xs.toArray)
      xs.zipWithIndex.foreach { case (x, i) => assert(OffsetListCodec.get(enc, i) == x) }
    }
  }

  test("one byte per offset for short lists (the paper's common case)") {
    val enc = OffsetListCodec.encode((0 until 200).toArray)
    assert(enc.length == 1 + 200)
  }
}

class CSRGraphSpec extends AnyFunSuite {

  private val csr = CSRGraph.random(nV = 500, nE = 5000, seed = 3L)

  test("CSR partitions all edges by source") {
    assert(csr.offsets(0) == 0 && csr.offsets(csr.nV) == csr.nE)
    (0 until csr.nV).foreach(v => assert(csr.listStart(v) <= csr.listEnd(v)))
    assert((0 until csr.nV).map(csr.degree).sum == csr.nE)
  }

  test("CSR adjacency equals a naive grouping") {
    val src = Array(0, 0, 1, 3, 3, 3)
    val dst = Array(1, 2, 2, 0, 1, 4)
    val ids = Array(10L, 11L, 12L, 13L, 14L, 15L)
    val g = CSRGraph.build(5, src, dst, ids)
    assert((g.listStart(0) until g.listEnd(0)).map(g.nbrs).sorted == Seq(1, 2))
    assert(g.degree(1) == 1 && g.degree(2) == 0 && g.degree(3) == 3 && g.degree(4) == 0)
    assert((g.listStart(3) until g.listEnd(3)).map(g.eIds).sorted == Seq(13L, 14L, 15L))
  }

  test("offset index lists are per-vertex permutations") {
    val idx = OffsetIndex.shuffled(csr)
    (0 until csr.nV).foreach { v =>
      val lst = OffsetListCodec.decode(idx.lists(v))
      assert(lst.sorted.toSeq == (0 until csr.degree(v)))
    }
  }

  test("graph indirection preserves entries") {
    val gi = GraphIndirection.shuffled(csr)
    (0 until csr.nE).foreach { i =>
      assert(gi.poolE(gi.perm(i)) == csr.eIds(i))
      assert(gi.poolN(gi.perm(i)) == csr.nbrs(i))
    }
  }

  test("offset-index model bytes ≈ 1 byte/entry + header for small degrees") {
    val idx = OffsetIndex.shuffled(csr)
    assert(idx.offsetBytes >= csr.nE + 0L)
    assert(idx.offsetBytes <= csr.nE * 2L + csr.nV.toLong)
    assert(idx.offsetBytes < csr.idListBytes / 2)
  }
}

class IndirectionBenchSpec extends AnyFunSuite {

  private val csr = CSRGraph.random(nV = 300, nE = 3000, seed = 5L)
  private val sources = Array(0, 1, 2, 3, 4)

  test("all three modes visit the same paths (count + checksum agree)") {
    val seq  = IndirectionBench.kHop(csr, IndirectionBench.Sequential, sources, 3)
    val lst  = IndirectionBench.kHop(csr,
      IndirectionBench.ListIndirection(OffsetIndex.shuffled(csr)), sources, 3)
    val glb  = IndirectionBench.kHop(csr,
      IndirectionBench.GraphLevel(GraphIndirection.shuffled(csr)), sources, 3)
    assert(seq._1 == lst._1 && lst._1 == glb._1)
    assert(seq._2 == lst._2 && lst._2 == glb._2)
    assert(seq._1 > 0)
  }

  test("walk counts equal kHop's path count per source") {
    val walks = IndirectionBench.walkCounts(csr, 3)
    (0 until csr.nV).foreach { v =>
      val (c, _) = IndirectionBench.kHop(csr, IndirectionBench.Sequential, Array(v), 3)
      assert(walks(v) == c, s"vertex $v")
    }
    assert(walks.exists(_ > 0))
  }

  test("1-hop count equals summed degrees of the sources") {
    val (c, _) = IndirectionBench.kHop(csr, IndirectionBench.Sequential, sources, 1)
    assert(c == sources.map(csr.degree).sum)
  }
}
