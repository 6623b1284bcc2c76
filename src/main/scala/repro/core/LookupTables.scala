package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import org.apache.spark.TaskContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Column, DataFrame, PlanFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.analysis.MultiInstanceRelation
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.expressions.aggregate.{AggregateExpression, Complete, Count}
import org.apache.spark.sql.catalyst.optimizer.BuildRight
import org.apache.spark.sql.catalyst.planning.{ExtractEquiJoinKeys, PhysicalOperation}
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, LeafNode, LogicalPlan, Statistics}
import org.apache.spark.sql.catalyst.plans.physical.{BroadcastMode, BroadcastPartitioning, Partitioning}
import org.apache.spark.sql.execution.{LeafExecNode, LocalTableScanExec, SparkPlan, SparkStrategy, UnaryExecNode}
import org.apache.spark.sql.execution.joins.{BroadcastHashJoinExec, HashJoin, HashedRelationBroadcastMode}
import org.apache.spark.sql.types.{DataType, DoubleType, IntegerType, LongType}

/** The entries of an A+ index or a cached graph table, held on the driver,
  * and the broadcast tables built over them: an index is built once, and an
  * access reaches its list in constant time (§3, §4.2).
  *
  * The Executor's [[MatchExec]] reads [[Lists]]: the entries one access
  * shape selects (its key-column filters), grouped by a key column. A join
  * of a frame with a lookup leaf on its right (the ground truth, the index
  * builder) probes a hash table: the entries its filters select, projected
  * onto the columns it reads and hashed on its join keys. Either is built on
  * the driver from the entries on first use, without a Spark job, broadcast
  * once, and read by every later query of that shape until `destroy()`. A
  * query's `count()` over these tables is one Spark job of one stage, with
  * no shuffle ([[CountExec]]).
  */
final class LookupTables private (spark: SparkSession, attrs: Seq[Attribute],
                                  private val entries: Seq[InternalRow]) {
  private val tables = mutable.Map[LookupTables.Shape, Broadcast[Any]]()
  private val byList = mutable.Map[(String, Option[String], Seq[Column]), Broadcast[Lists]]()

  def size: Long = entries.length

  def columns: Seq[String] = attrs.map(_.name)

  /** The values of the columns `cols`, one tuple per entry, read from the
    * entries on each traversal. */
  def values(cols: Seq[String]): Iterable[Seq[Any]] = {
    val at = cols.map(c => attrs.indexWhere(_.name == c))
    entries.view.map(r => at.map(i => r.get(i, attrs(i).dataType)))
  }

  /** Number of entries per value tuple of the columns `cols`; its size is
    * the number of distinct tuples. */
  def groups(cols: Seq[String]): Map[Seq[Any], Long] = values(cols).groupMapReduce(identity)(_ => 1L)(_ + _)

  /** The entries as a DataFrame with the source's columns. Joined on the
    * right of an equi-join, it is planned as a probe of one of the tables;
    * anywhere else, as a scan of the entries. */
  def frame: DataFrame = {
    LookupTables.register(spark)
    PlanFrame(spark, LookupLeaf(this, attrs.map(_.newInstance())))
  }

  /** The type of the column `column`. */
  def dataType(column: String): DataType = attrs.find(_.name == column).get.dataType

  /** Tables built and not yet destroyed. */
  def live: Int = synchronized(tables.size + byList.size)

  def destroy(): Unit = synchronized {
    tables.values.foreach(_.destroy())
    byList.values.foreach(_.destroy())
    tables.clear()
    byList.clear()
  }

  /** The entries that pass `filters`, grouped by the column `key`, each
    * group sorted by the column `sortBy` if given: for an index keyed by its
    * bound column, its granular lists (§3). Built on first use, broadcast
    * once per shape. */
  private[core] def lists(key: String, sortBy: Option[String], filters: Seq[Column]): Broadcast[Lists] =
    synchronized {
      byList.getOrElseUpdate((key, sortBy, filters), {
        val keep = filters.reduceOption(_ && _).map(c => Predicate.createInterpreted(
          BindReferences.bindReference(PlanFrame.resolve(spark, Seq(c), LookupLeaf(this, attrs)).head, attrs)))
        val kept = entries.indices.filter(i => keep.forall(_.eval(entries(i)))).toArray
        spark.sparkContext.broadcast(Lists(attrs, entries, kept, attrs.indexWhere(_.name == key),
          sortBy.map(c => attrs.indexWhere(_.name == c))))
      })
    }

  private[core] def table(s: LookupTables.Shape): Broadcast[Any] = synchronized {
    tables.getOrElseUpdate(s, {
      val keep = Predicate.createInterpreted(s.filters.reduceOption(And).getOrElse(Literal.TrueLiteral))
      val project = UnsafeProjection.create(s.columns)
      val n = entries.count(keep.eval)
      // `HashedRelation` is private to Spark; through the generic
      // `BroadcastMode` the table is typed `Any`.
      val mode: BroadcastMode = s.mode
      spark.sparkContext.broadcast(mode.transform(entries.iterator.filter(keep.eval).map(project), Some(n.toLong)))
    })
  }
}

object LookupTables {

  /** Collects the entries of `df` to the driver: for an A+ index or a
    * cached graph, the only copy of its entries. A `frame` is already on the
    * driver and yields its own tables. */
  def collect(df: DataFrame): LookupTables = df.queryExecution.analyzed match {
    case LookupLeaf(t, _) => t
    case plan => new LookupTables(df.sparkSession, plan.output,
      ArraySeq.unsafeWrapArray(df.queryExecution.executedPlan.executeCollect()))
  }

  /** One access shape over the source's columns by position: the filters
    * the entries must pass, the projected columns and the hash mode of the
    * join keys over them. */
  private[core] final case class Shape(filters: Seq[Expression], columns: Seq[Expression],
                                       mode: HashedRelationBroadcastMode)

  private[core] def register(spark: SparkSession): Unit = {
    val ex = spark.experimental
    ex.synchronized { if (!ex.extraStrategies.contains(Probe)) ex.extraStrategies :+= Probe }
  }

  /** Plans a query's match leaf as a [[MatchExec]]. Plans an inner
    * equi-join whose right side is a lookup leaf as a hash join that probes
    * the leaf's table. What Catalyst pushed below the join (inferred
    * `isnotnull`, filters on the leaf's columns, column pruning) becomes part
    * of the table's shape: a filter between a broadcast hash join and its
    * build side could not be broadcast. Plans the aggregate `Dataset.count()`
    * builds over a plan that reads a lookup or match leaf as a
    * [[CountExec]]; every other aggregate keeps Spark's plan. */
  private object Probe extends SparkStrategy {
    def apply(plan: LogicalPlan): Seq[SparkPlan] = plan match {
      case Aggregate(Nil, Seq(Alias(AggregateExpression(Count(Seq(Literal(1, _))), Complete, false, None, _), _)),
                     child, _) if child.exists(l => l.isInstanceOf[LookupLeaf] || l.isInstanceOf[MatchLeaf]) =>
        Seq(CountExec(plan.output, planLater(child)))
      case m: MatchLeaf => Seq(MatchExec(m.output, m.program))
      case ExtractEquiJoinKeys(Inner, lKeys, rKeys, other, _, left,
                               PhysicalOperation(projects, filters, leaf: LookupLeaf), _) =>
        val out = projects.map(_.toAttribute)
        def bind(e: Expression) = BindReferences.bindReference(e, leaf.output)
        val shape = Shape(filters.map(bind), projects.map { case Alias(c, _) => bind(c); case e => bind(e) },
          HashedRelationBroadcastMode(BindReferences.bindReferences(HashJoin.rewriteKeyExpr(rKeys), out)))
        Seq(BroadcastHashJoinExec(lKeys, rKeys, Inner, BuildRight, other, planLater(left),
          LookupExec(out, leaf.tables, shape)))
      case leaf: LookupLeaf => Seq(LocalTableScanExec(leaf.output, leaf.tables.entries, None))
      case _ => Nil
    }
  }
}

/** The entries of `tables` as a relation with columns `output`. Every
  * `frame` is a new leaf with new attributes, and so is each side of a
  * self-join of one frame. Catalyst's rules read a leaf's statistics. */
private[core] final case class LookupLeaf(tables: LookupTables, output: Seq[Attribute])
    extends LeafNode with MultiInstanceRelation {
  override def newInstance(): LookupLeaf = copy(output = output.map(_.newInstance()))
  override def computeStats(): Statistics =
    Statistics(sizeInBytes = BigInt(8L * output.size * tables.size).max(1), rowCount = Some(tables.size))
}

/** The build side of a probe: returns the table of `shape`, built on first
  * use, under the broadcast mode its join requires. Tasks that serialize the
  * plan do not carry the entries. */
private[core] final case class LookupExec(output: Seq[Attribute], @transient tables: LookupTables,
                                          shape: LookupTables.Shape) extends LeafExecNode {
  override def outputPartitioning: Partitioning = BroadcastPartitioning(shape.mode)
  override protected def doExecute(): RDD[InternalRow] =
    throw new UnsupportedOperationException("a lookup table is only read through the hash join that probes it")
  override def doExecuteBroadcast[T](): Broadcast[T] = tables.table(shape).asInstanceOf[Broadcast[T]]
}

/** The rows of `child`, counted in one Spark job of one stage: each task
  * counts its partition and the driver sums the counts. Spark plans
  * `Dataset.count()` as a partial aggregate, an exchange to one partition
  * and a final aggregate, which is two stages and a shuffle; this node
  * requires no distribution of its child, so no exchange is planned. */
private[core] final case class CountExec(output: Seq[Attribute], child: SparkPlan) extends UnaryExecNode {
  override def executeCollect(): Array[InternalRow] = {
    val rdd = child.execute()
    var total = 0L
    sparkContext.runJob(rdd, CountExec.size, rdd.partitions.indices, (_: Int, n: Long) => total += n)
    Array(UnsafeProjection.create(schema)(InternalRow(total)))
  }

  /** The one-row count, for plans that read it as rows (`show`, a
    * projection over the count). */
  override protected def doExecute(): RDD[InternalRow] = sparkContext.parallelize(executeCollect().toSeq, 1)

  override protected def withNewChildInternal(c: SparkPlan): CountExec = copy(child = c)
}

private object CountExec {
  /** The rows of one partition. Spark's closure cleaner reads the class
    * that defines a job's function on every job, and this object's class
    * is small (`RDD.count`'s function is defined in `RDD`). */
  val size: (TaskContext, Iterator[InternalRow]) => Long = (_, rows) => {
    var n = 0L
    while (rows.hasNext) { rows.next(); n += 1 }
    n
  }
}

/** Entries grouped by a key column, held as columns. The entries of the
  * group `g` are the positions `begin(g) until end(g)`. When the keys are
  * dense (every ID of a graph, for example), the group of key `id` is
  * `id - lo` and absent keys have empty groups; otherwise it is found by
  * binary search in the sorted distinct `keys`. */
private[core] final class Lists private (lo: Long, keys: Array[Long], starts: Array[Int],
                                         val columns: Array[Lists.Vec]) extends Serializable {
  def size: Int = starts(starts.length - 1)

  /** The group of key `id`, or -1 if it has no entries. */
  def group(id: Long): Int =
    if (keys == null) { val g = id - lo; if (g >= 0 && g < starts.length - 1) g.toInt else -1 }
    else math.max(-1, java.util.Arrays.binarySearch(keys, id))

  def begin(g: Int): Int = starts(g)
  def end(g: Int): Int   = starts(g + 1)

  /** The values of the long column `c`. */
  def longs(c: Int): Array[Long] = columns(c).asInstanceOf[Lists.Longs].a
}

private[core] object Lists {

  /** One column of a [[Lists]]: it writes its value at a position into a
    * slot of a row, or compares the two. */
  sealed abstract class Vec extends Serializable {
    def set(i: Int, row: InternalRow, slot: Int): Unit
    def same(i: Int, row: InternalRow, slot: Int): Boolean
  }
  final class Longs(val a: Array[Long]) extends Vec {
    def set(i: Int, row: InternalRow, slot: Int): Unit = row.setLong(slot, a(i))
    def same(i: Int, row: InternalRow, slot: Int): Boolean = row.getLong(slot) == a(i)
  }
  final class Ints(a: Array[Int]) extends Vec {
    def set(i: Int, row: InternalRow, slot: Int): Unit = row.setInt(slot, a(i))
    def same(i: Int, row: InternalRow, slot: Int): Boolean = row.getInt(slot) == a(i)
  }
  final class Doubles(a: Array[Double]) extends Vec {
    def set(i: Int, row: InternalRow, slot: Int): Unit = row.setDouble(slot, a(i))
    def same(i: Int, row: InternalRow, slot: Int): Boolean = row.getDouble(slot) == a(i)
  }

  /** The entries at positions `kept` of `entries` (columns `attrs`), grouped
    * by the long column `key`, each group sorted by the long column `sortBy`
    * if given, ties in entry order. */
  def apply(attrs: Seq[Attribute], entries: Seq[InternalRow], kept: Array[Int], key: Int,
            sortBy: Option[Int]): Lists = {
    val k = kept.map(entries(_).getLong(key))
    val s = sortBy.map(c => kept.map(entries(_).getLong(c))).orNull
    val order = mergeSort(kept.length, (a, b) => k(a) < k(b) || (k(a) == k(b) && s != null && s(a) < s(b)))
    val rows = order.map(i => entries(kept(i)))
    val columns = attrs.indices.map { c =>
      attrs(c).dataType match {
        case LongType    => new Longs(rows.map(_.getLong(c)))
        case IntegerType => new Ints(rows.map(_.getInt(c)))
        case DoubleType  => new Doubles(rows.map(_.getDouble(c)))
        case t           => throw new UnsupportedOperationException(s"column ${attrs(c).name} of type $t")
      }
    }.toArray
    val sorted = order.map(k)
    val n = sorted.length
    if (n == 0) new Lists(0L, null, Array(0), columns)
    else if (sorted(n - 1) - sorted(0) <= 2L * n + 64) {
      val lo = sorted(0)
      val starts = new Array[Int]((sorted(n - 1) - lo + 2).toInt)
      sorted.foreach(id => starts((id - lo + 1).toInt) += 1)
      for (g <- 1 until starts.length) starts(g) += starts(g - 1)
      new Lists(lo, null, starts, columns)
    } else {
      val firsts = (0 until n).filter(i => i == 0 || sorted(i) != sorted(i - 1)).toArray
      new Lists(0L, firsts.map(sorted), firsts :+ n, columns)
    }
  }

  /** The positions `0 until n`, stably sorted by `lt`. */
  private def mergeSort(n: Int, lt: (Int, Int) => Boolean): Array[Int] = {
    var a = Array.range(0, n)
    var b = new Array[Int](n)
    var w = 1
    while (w < n) {
      var lo = 0
      while (lo < n) {
        val mid = math.min(lo + w, n)
        val hi  = math.min(lo + 2 * w, n)
        var i = lo
        var j = mid
        for (o <- lo until hi) {
          if (j >= hi || (i < mid && !lt(a(j), a(i)))) { b(o) = a(i); i += 1 }
          else { b(o) = a(j); j += 1 }
        }
        lo = hi
      }
      val t = a; a = b; b = t
      w *= 2
    }
    a
  }
}
