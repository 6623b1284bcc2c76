package repro.storage

/** The §3 demonstrative experiment: k-hop enumeration from a set of source
  * vertices, reading adjacency lists (i) sequentially from the ID lists,
  * (ii) through list-level offset indirections, and (iii) through a
  * graph-level indirection. The traversal copies every matched (edge ID,
  * neighbour ID) into a tuple buffer, mimicking an operator pipeline's
  * tuple copies, and returns (pathCount, checksum) so the JIT cannot
  * eliminate the reads.
  */
object IndirectionBench {

  sealed trait Mode
  case object Sequential extends Mode
  final case class ListIndirection(idx: OffsetIndex) extends Mode
  final case class GraphLevel(gi: GraphIndirection) extends Mode

  def kHop(csr: CSRGraph, mode: Mode, sources: Array[Int], k: Int): (Long, Long) = {
    val tupleE = new Array[Long](k)
    val tupleN = new Array[Int](k)
    var count  = 0L
    var check  = 0L

    def recurse(v: Int, depth: Int): Unit = {
      val start = csr.listStart(v)
      val d     = csr.degree(v)
      mode match {
        case Sequential =>
          var i = start
          val end = csr.listEnd(v)
          while (i < end) {
            val e = csr.eIds(i); val n = csr.nbrs(i)
            tupleE(depth) = e; tupleN(depth) = n
            if (depth == k - 1) { count += 1; check += e + n }
            else recurse(n, depth + 1)
            i += 1
          }
        case ListIndirection(idx) =>
          val lst = idx.lists(v)
          var i = 0
          while (i < d) {
            val p = start + OffsetListCodec.get(lst, i)
            val e = csr.eIds(p); val n = csr.nbrs(p)
            tupleE(depth) = e; tupleN(depth) = n
            if (depth == k - 1) { count += 1; check += e + n }
            else recurse(n, depth + 1)
            i += 1
          }
        case GraphLevel(gi) =>
          var i = start
          val end = csr.listEnd(v)
          while (i < end) {
            val p = gi.perm(i)
            val e = gi.poolE(p); val n = gi.poolN(p)
            tupleE(depth) = e; tupleN(depth) = n
            if (depth == k - 1) { count += 1; check += e + n }
            else recurse(n, depth + 1)
            i += 1
          }
      }
    }

    sources.foreach(recurse(_, 0))
    (count, check)
  }

  /** Per vertex v, the number of k-edge walks starting at v — the paths
    * [[kHop]] enumerates from source v — in O(k·|E|):
    * w_0(v) = 1, w_j(v) = Σ over v's list entries n of w_{j−1}(n).
    * Sums saturate at Long.MaxValue. */
  def walkCounts(csr: CSRGraph, k: Int): Array[Long] = {
    var w = Array.fill(csr.nV)(1L)
    (1 to k).foreach { _ =>
      val next = new Array[Long](csr.nV)
      var v = 0
      while (v < csr.nV) {
        var sum = 0L
        var i = csr.listStart(v)
        while (i < csr.listEnd(v)) {
          val x = w(csr.nbrs(i))
          sum = if (sum > Long.MaxValue - x) Long.MaxValue else sum + x
          i += 1
        }
        next(v) = sum
        v += 1
      }
      w = next
    }
    w
  }
}
