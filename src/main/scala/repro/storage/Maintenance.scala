package repro.storage

import java.util.{Arrays, Comparator}
import scala.collection.{immutable, mutable}

/** §5.5 maintenance micro-benchmark substrate: a single-threaded in-memory
  * adjacency store with per-vertex update buffers (20 % of the data size,
  * merged when full — §4.4) under progressively richer index configurations:
  *
  *  - D_s   — no secondary partitioning, lists sorted by neighbour ID
  *  - D_p   — partitioned by adjacent-edge label, unsorted (kept in edge-ID
  *    order within a label)
  *  - D_ps  — partitioned by label and sorted by neighbour ID
  *  - D_ps+VB_t — adds a secondary vertex-bound offset index sorted on time
  *  - D_ps+EB_t — adds an edge-bound index over the 2-path
  *    ``v_nbr ←[e_adj]− v_s −[e_b]→ v_d`` with predicate
  *    ``e_b.time < e_adj.time + α`` (α at ~1 % selectivity): each insert
  *    runs the two delta-queries of §4.4 (update the lists of bound edges
  *    sharing the source, then build the new edge's own list), fused into
  *    one scan of the bound edges that share the new edge's source.
  *
  * Each per-vertex page is one array: a prefix sorted in the configuration's
  * order, then the update buffer in arrival order. A merge sorts only the
  * buffer and merges the two sorted runs into a new array, so an array is
  * never reordered once written. Reads (`outEdges`, `inEdges`) return a
  * view of (array, length) without copying; later inserts only write past
  * that length or replace the array, so a returned view never changes.
  * The store supports inserts only; there are no deletes.
  */
object Maintenance {

  sealed trait Config { def name: String }
  case object Ds   extends Config { val name = "D_s"      }
  case object Dp   extends Config { val name = "D_p"      }
  case object Dps  extends Config { val name = "D_ps"     }
  case object VBt  extends Config { val name = "D_ps+VB_t" }
  final case class EBt(alpha: Double) extends Config { val name = "D_ps+EB_t" }

  final case class Edge(eId: Long, src: Int, dst: Int, label: Int, time: Int)

  private val NoEdges = new Array[Edge](0)

  /** Update-buffer capacity of a page whose merged list has `sorted` entries. */
  private def bufCapFor(sorted: Int): Int = math.max(4, sorted / 5)

  /** The first `length` entries of `a`; `a` is never written below `length`. */
  private final class EdgeView(a: Array[Edge], val length: Int) extends immutable.IndexedSeq[Edge] {
    def apply(i: Int): Edge =
      if (i < length) a(i) else throw new IndexOutOfBoundsException(s"$i is out of bounds (length $length)")
    override def foreach[U](f: Edge => U): Unit = { var i = 0; while (i < length) { f(a(i)); i += 1 } }
  }

  /** One direction's per-vertex page: `edges(0 until sorted)` is the merged
    * list, `edges(sorted until size)` the update buffer. */
  private final class Page {
    var edges: Array[Edge] = NoEdges
    var sorted = 0
    var size = 0
    def bufCap: Int = bufCapFor(sorted)
    def view(n: Int): immutable.IndexedSeq[Edge] = new EdgeView(edges, n)
  }

  /** The merged-list order of one configuration and direction: (label)
    * unless D_s, then (neighbour ID) unless D_p, then edge ID. */
  private final class Order(cfg: Config, forward: Boolean) extends Comparator[Edge] {
    private val byLabel = cfg != Ds
    private val byNbr   = cfg != Dp
    def compare(a: Edge, b: Edge): Int = {
      var c = if (byLabel) Integer.compare(a.label, b.label) else 0
      if (c == 0 && byNbr) c = if (forward) Integer.compare(a.dst, b.dst) else Integer.compare(a.src, b.src)
      if (c == 0) c = java.lang.Long.compare(a.eId, b.eId)
      c
    }
  }

  /** A growable list of primitive longs: one EB_t adjacency list. */
  final class LongBuf {
    private var a = Array.emptyLongArray
    private var n = 0
    def size: Int = n
    def +=(x: Long): Unit = {
      if (n == a.length) a = Arrays.copyOf(a, math.max(4, 2 * n))
      a(n) = x; n += 1
    }
    def toArray: Array[Long] = Arrays.copyOf(a, n)
  }

  /** The bound edges of one source vertex: their IDs, times and EB_t lists
    * side by side, so the delta queries scan primitive arrays and reach each
    * list without a lookup in `ebt`. */
  private final class EbPage {
    var ids   = Array.emptyLongArray
    var times = Array.emptyIntArray
    var lists = new Array[LongBuf](0)
    var size  = 0
    def add(e: Edge, l: LongBuf): Unit = {
      if (size == ids.length) {
        val cap = math.max(4, 2 * size)
        ids = Arrays.copyOf(ids, cap); times = Arrays.copyOf(times, cap); lists = Arrays.copyOf(lists, cap)
      }
      ids(size) = e.eId; times(size) = e.time; lists(size) = l; size += 1
    }
  }

  final class Store(val nV: Int, val cfg: Config) {
    private val fwd = Array.fill(nV)(new Page)
    private val bwd = Array.fill(nV)(new Page)
    private val fwdOrder = new Order(cfg, forward = true)
    private val bwdOrder = new Order(cfg, forward = false)
    /** VB_t: per-vertex forward offset view sorted on time; `vbtSize(v)` of
      * `vbt(v)` are in use. */
    private val vbt     = if (cfg == VBt) Array.fill(nV)(NoEdges) else null
    private val vbtSize = if (cfg == VBt) new Array[Int](nV) else null
    /** EB_t: per-bound-edge adjacency (edge IDs of qualifying adjacent edges). */
    val ebt = mutable.LongMap.empty[LongBuf]
    /** EB_t's bound edges grouped by source, in arrival order. */
    private val ebBySrc = if (cfg.isInstanceOf[EBt]) Array.fill(nV)(new EbPage) else null

    /** Sort the buffer and merge it with the sorted prefix into a new array
      * with room for the next buffer. */
    private def merge(p: Page, ord: Order): Unit = {
      val s = p.sorted; val n = p.size
      if (n == s) return
      val old = p.edges
      val out = new Array[Edge](n + bufCapFor(n))
      // The sorted buffer goes to out(s until n), the tail of the merged run:
      // the merge below writes out(i + j - s) <= out(j), so it never
      // overwrites a buffer entry it has not read yet.
      System.arraycopy(old, s, out, s, n - s)
      Arrays.sort(out, s, n, ord)
      var i = 0; var j = s; var k = 0
      while (i < s && j < n) {
        if (ord.compare(old(i), out(j)) <= 0) { out(k) = old(i); i += 1 }
        else { out(k) = out(j); j += 1 }
        k += 1
      }
      System.arraycopy(old, i, out, k, s - i)
      p.edges = out; p.sorted = n
    }

    private def append(p: Page, e: Edge, ord: Order): Unit = {
      if (p.size == p.edges.length) p.edges = Arrays.copyOf(p.edges, p.sorted + p.bufCap)
      p.edges(p.size) = e; p.size += 1
      if (p.size - p.sorted >= p.bufCap) merge(p, ord)
    }

    /** Insert `e` into `v`'s time-sorted view, after the entries of equal time. */
    private def insertByTime(v: Int, e: Edge): Unit = {
      var lst = vbt(v); val n = vbtSize(v)
      var lo = 0; var hi = n
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (lst(mid).time <= e.time) lo = mid + 1 else hi = mid
      }
      if (n == lst.length) { lst = Arrays.copyOf(lst, math.max(4, 2 * n)); vbt(v) = lst }
      System.arraycopy(lst, lo, lst, lo + 1, n - lo)
      lst(lo) = e; vbtSize(v) = n + 1
    }

    def insert(e: Edge): Unit = {
      if (cfg == VBt) insertByTime(e.src, e)
      append(fwd(e.src), e, fwdOrder)
      append(bwd(e.dst), e, bwdOrder)

      cfg match {
        case EBt(alpha) =>
          // Delta query 1: the new edge joins the lists of bound edges that
          // share its source and pass the predicate. Delta query 2: the new
          // bound edge's own list. One scan of the source's bound edges
          // serves both; the new edge is not among them yet.
          val own = new LongBuf
          ebt(e.eId) = own
          val p = ebBySrc(e.src); val n = p.size
          var i = 0
          while (i < n) {
            val t = p.times(i)
            if (t < e.time + alpha) p.lists(i) += e.eId
            if (e.time < t + alpha) own += p.ids(i)
            i += 1
          }
          p.add(e, own)
        case _ => ()
      }
    }

    def outEdges(v: Int): Seq[Edge] = { val p = fwd(v); p.view(p.size) }

    def inEdges(v: Int): Seq[Edge] = { val p = bwd(v); p.view(p.size) }

    /** The merged (sorted) part of `v`'s forward or backward page. */
    private[storage] def mergedPrefix(v: Int, forward: Boolean): Seq[Edge] = {
      val p = if (forward) fwd(v) else bwd(v); p.view(p.sorted)
    }

    /** Force-merge every page (end-of-ingest compaction). */
    def compact(): Unit = {
      var v = 0
      while (v < nV) {
        merge(fwd(v), fwdOrder)
        merge(bwd(v), bwdOrder)
        v += 1
      }
    }

    def timeSortedOut(v: Int): Seq[Edge] =
      if (cfg == VBt) immutable.ArraySeq.unsafeWrapArray(Arrays.copyOf(vbt(v), vbtSize(v)))
      else Nil
  }

  /** Inserts/second of `Trials` timed runs; `median` and `spread`
    * ((max − min) / median) summarise them. */
  final case class Rate(trials: Seq[Double]) {
    def median: Double = {
      val s = trials.sorted; val m = s.size / 2
      if (s.size % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
    }
    def spread: Double = (trials.max - trials.min) / median
  }

  val Trials = 5

  /** Load `initial` in bulk, then insert `stream` one edge at a time, on a
    * fresh store in each of `Trials` trials; returns the last trial's store
    * and the single-threaded sustained inserts/second over the stream. */
  def throughput(nV: Int, cfg: Config, initial: Seq[Edge], stream: Seq[Edge]): (Store, Rate) = {
    var st: Store = null
    val rates = (1 to Trials).map { _ =>
      st = new Store(nV, cfg)
      initial.foreach(st.insert)
      st.compact()
      val t0 = System.nanoTime()
      stream.foreach(st.insert)
      val dt = (System.nanoTime() - t0) / 1e9
      stream.size / math.max(dt, 1e-9)
    }
    (st, Rate(rates))
  }
}
