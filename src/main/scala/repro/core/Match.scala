package repro.core

import org.apache.spark.TaskContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, PlanFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.analysis.MultiInstanceRelation
import org.apache.spark.sql.catalyst.expressions.{Attribute, Expression, SpecificInternalRow, UnsafeRow}
import org.apache.spark.sql.catalyst.plans.logical.{LeafNode, Statistics}
import org.apache.spark.sql.execution.LeafExecNode
import org.apache.spark.sql.execution.metric.{SQLMetric, SQLMetrics}
import org.apache.spark.sql.internal.SQLConf
import org.apache.spark.sql.types.DataType

/** Where a loop of a [[MatchProgram]] draws its candidates. */
private[core] sealed trait Source { def lists: Broadcast[Lists] }

/** Every entry of `lists`, in order: the vertex scan. Slice `i` of `n`
  * takes the positions `i, i + n, i + 2n, ...`, so the hubs at the top of
  * the ID range go to different slices. */
private[core] final case class Scan(lists: Broadcast[Lists]) extends Source

/** The entries `pick` keeps of an index's granular list of the ID in slot
  * `bound`. */
private[core] final case class ListProbe(lists: Broadcast[Lists], bound: Int, pick: Pick) extends Source

/** The property-store entry of the vertex or edge ID in slot `bound`. */
private[core] final case class PropertyRead(lists: Broadcast[Lists], bound: Int) extends Source

/** Which entries of a list a [[ListProbe]] keeps. */
private[core] sealed trait Pick
private[core] case object Every extends Pick
/** The entries whose column `column`, the list's sort column, equals slot
  * `slot`: found by binary search. */
private[core] final case class SortedIs(column: Int, slot: Int) extends Pick
/** The entries whose column `column` equals slot `slot`. */
private[core] final case class ColumnIs(column: Int, slot: Int) extends Pick

/** One nested loop of a match: for each candidate of `source`, write the
  * columns of `binds` into their slots (column → slot), then keep the
  * candidate if `check` holds. `step` is the plan operator the loop belongs
  * to. */
private[core] final case class Loop(step: Int, source: Source, binds: Seq[(Int, Int)], check: Option[Expression])

/** A query plan compiled into nested loops over lists (§4.1–4.2): the
  * partial match is one row of `slots`, and each loop extends it by the
  * candidates of its source. `steps` names the plan's operators, and
  * `output` the slots of the result's columns. */
private[core] final case class MatchProgram(steps: Seq[String], slots: Seq[DataType], loops: Seq[Loop],
                                            output: Seq[Int]) {
  require(loops.headOption.exists(_.source.isInstanceOf[Scan]), "a match program starts with a scan")

  /** Entries of the scan. */
  def scanSize: Int = loops.head.source.lists.value.size

  /** The matches of one of `slices` slices, whose scan takes the positions
    * `first, first + slices, ...`, pipelined: the loops run depth first,
    * and each match is returned as soon as the last loop keeps it, in an
    * `UnsafeRow` reused from one match to the next. Adds, per step, the
    * matches it passes on to `rowsOut` and the list entries its probes read
    * to `entriesRead`. */
  def run(first: Int, slices: Int, rowsOut: Array[Long], entriesRead: Array[Long]): Iterator[InternalRow] =
    new Iterator[InternalRow] {
      private val n      = loops.length
      private val source = loops.map(_.source).toArray
      private val lists  = source.map(_.lists.value)
      private val stepOf = loops.map(_.step).toArray
      private val last   = Array.tabulate(n)(d => d == n - 1 || stepOf(d + 1) != stepOf(d))
      private val cols   = loops.map(_.binds.map(_._1).toArray).toArray
      private val into   = loops.map(_.binds.map(_._2).toArray).toArray
      private val check  = loops.map(_.check.orNull).toArray
      private val result = output.toArray
      private val pos    = new Array[Int](n)
      private val end    = new Array[Int](n)
      private val stride = Array.fill(n)(1)
      private val row    = new SpecificInternalRow(slots)
      private val out    = {
        val r = new UnsafeRow(output.size)
        val bytes = UnsafeRow.calculateBitSetWidthInBytes(output.size) + 8 * output.size
        r.pointTo(new Array[Byte](bytes), bytes)
        r
      }
      private var depth = 0
      private var state = 0 // 0: not advanced, 1: a match is ready, 2: done
      open(0)

      private def open(d: Int): Unit = source(d) match {
        case Scan(_) =>
          pos(d) = first; end(d) = lists(d).size; stride(d) = slices
          entriesRead(stepOf(d)) += math.max(0, (end(d) - first + slices - 1) / slices)
        case ListProbe(_, bound, pick) =>
          val l = lists(d)
          val g = l.group(row.getLong(bound))
          if (g < 0) { pos(d) = 0; end(d) = 0 }
          else {
            pos(d) = l.begin(g); end(d) = l.end(g)
            entriesRead(stepOf(d)) += end(d) - pos(d)
            pick match {
              case SortedIs(c, s) =>
                val a = l.longs(c)
                val v = row.getLong(s)
                pos(d) = search(a, pos(d), end(d), v)
                end(d) = search(a, pos(d), end(d), v + 1)
              case _ =>
            }
          }
        case PropertyRead(_, bound) =>
          val l = lists(d)
          val g = l.group(row.getLong(bound))
          if (g < 0) { pos(d) = 0; end(d) = 0 } else { pos(d) = l.begin(g); end(d) = l.end(g) }
      }

      /** The first position in `from until to` of the ascending `a` whose
        * value is at least `v`. */
      private def search(a: Array[Long], from: Int, to: Int, v: Long): Int = {
        var lo = from
        var hi = to
        while (lo < hi) { val mid = (lo + hi) >>> 1; if (a(mid) < v) lo = mid + 1 else hi = mid }
        lo
      }

      private def accept(d: Int, i: Int): Boolean = {
        val l = lists(d)
        source(d) match {
          case ListProbe(_, _, ColumnIs(c, s)) if !l.columns(c).same(i, row, s) => return false
          case _ =>
        }
        val cs = cols(d)
        val ss = into(d)
        var j = 0
        while (j < cs.length) { l.columns(cs(j)).set(i, row, ss(j)); j += 1 }
        check(d) == null || check(d).eval(row) == true
      }

      private def advance(): Boolean = {
        while (depth >= 0) {
          val d = depth
          if (pos(d) < end(d)) {
            val i = pos(d)
            pos(d) += stride(d)
            if (accept(d, i)) {
              if (last(d)) rowsOut(stepOf(d)) += 1
              if (d == n - 1) return true
              depth = d + 1
              open(depth)
            }
          } else depth -= 1
        }
        false
      }

      def hasNext: Boolean = {
        if (state == 0) state = if (advance()) 1 else 2
        state == 1
      }

      def next(): InternalRow = {
        if (!hasNext) throw new NoSuchElementException
        state = 0
        var k = 0
        while (k < result.length) { out.setLong(k, row.getLong(result(k))); k += 1 }
        out
      }
    }
}

/** The matches of a compiled query as a relation with columns `output`:
  * one long column per slot of `program.output`. */
private[core] final case class MatchLeaf(output: Seq[Attribute], program: MatchProgram)
    extends LeafNode with MultiInstanceRelation {
  override def newInstance(): MatchLeaf = copy(output = output.map(_.newInstance()))
  override def computeStats(): Statistics = Statistics(sizeInBytes = conf.defaultSizeInBytes)
}

private[core] object MatchLeaf {
  def frame(spark: SparkSession, output: Seq[Attribute], program: MatchProgram): DataFrame = {
    LookupTables.register(spark)
    PlanFrame(spark, MatchLeaf(output, program))
  }
}

/** Runs a [[MatchProgram]]: one task per slice of the scan, each a pipeline
  * of index nested-loop probes into the broadcast lists, with no exchange,
  * no sort and no join of Spark's. Two metrics per plan step: the matches it
  * passes on (`rows<i>`), and the list entries its probes read (`entries<i>`,
  * the step's actual i-cost, §4.1; a scan reads its vertices). */
private[core] final case class MatchExec(output: Seq[Attribute], program: MatchProgram) extends LeafExecNode {

  override lazy val metrics: Map[String, SQLMetric] = program.steps.zipWithIndex.flatMap { case (s, i) =>
    Seq(s"rows$i"    -> SQLMetrics.createMetric(sparkContext, s"rows out of $s"),
        s"entries$i" -> SQLMetrics.createMetric(sparkContext, s"list entries read by $s"))
  }.toMap

  override protected def doExecute(): RDD[InternalRow] = {
    val p = program
    val slices = math.max(1, math.min(p.scanSize,
      conf.getConf(SQLConf.LEAF_NODE_DEFAULT_PARALLELISM).getOrElse(sparkContext.defaultParallelism)))
    val rows    = p.steps.indices.map(i => longMetric(s"rows$i")).toArray
    val entries = p.steps.indices.map(i => longMetric(s"entries$i")).toArray
    PlanFrame.mapPartitions(sparkContext.parallelize(0 until slices, slices)) { slice =>
      val r = new Array[Long](rows.length)
      val e = new Array[Long](entries.length)
      TaskContext.get().addTaskCompletionListener[Unit] { _ =>
        for (i <- r.indices) { rows(i).add(r(i)); entries(i).add(e(i)) }
      }
      p.run(slice.next(), slices, r, e)
    }
  }
}
