package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, PlanFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.analysis.MultiInstanceRelation
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.optimizer.BuildRight
import org.apache.spark.sql.catalyst.planning.{ExtractEquiJoinKeys, PhysicalOperation}
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical.{LeafNode, LogicalPlan, Statistics}
import org.apache.spark.sql.catalyst.plans.physical.{BroadcastMode, BroadcastPartitioning, Partitioning}
import org.apache.spark.sql.execution.{LeafExecNode, LocalTableScanExec, SparkPlan, SparkStrategy}
import org.apache.spark.sql.execution.joins.{BroadcastHashJoinExec, HashJoin, HashedRelationBroadcastMode}

/** The entries of an A+ index or a cached graph table, held on the driver,
  * and the broadcast hash tables the Executor's joins probe: an index is
  * built once, and an access reaches its list in constant time (§3, §4.2).
  *
  * A table serves one access shape: the entries its filters select,
  * projected onto the columns it reads and hashed on its join keys. It is
  * built on the driver from the entries on first use, without a Spark job,
  * broadcast once, and probed by every later query of that shape until
  * `destroy()`.
  */
final class LookupTables private (spark: SparkSession, attrs: Seq[Attribute],
                                  private val entries: Seq[InternalRow]) {
  private val tables = mutable.Map[LookupTables.Shape, Broadcast[Any]]()

  def size: Long = entries.length

  def columns: Seq[String] = attrs.map(_.name)

  /** Number of entries per value tuple of the columns `cols`; its size is
    * the number of distinct tuples. */
  def groups(cols: Seq[String]): Map[Seq[Any], Long] = {
    val at = cols.map(c => attrs.indexWhere(_.name == c))
    entries.groupMapReduce(r => at.map(i => r.get(i, attrs(i).dataType)))(_ => 1L)(_ + _)
  }

  /** The entries as a DataFrame with the source's columns. Joined on the
    * right of an equi-join, it is planned as a probe of one of the tables;
    * anywhere else, as a scan of the entries. */
  def frame: DataFrame = {
    LookupTables.register(spark)
    PlanFrame(spark, LookupLeaf(this, attrs.map(_.newInstance())))
  }

  /** Tables built and not yet destroyed. */
  def live: Int = synchronized(tables.size)

  def destroy(): Unit = synchronized {
    tables.values.foreach(_.destroy())
    tables.clear()
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

  private def register(spark: SparkSession): Unit = {
    val ex = spark.experimental
    ex.synchronized { if (!ex.extraStrategies.contains(Probe)) ex.extraStrategies :+= Probe }
  }

  /** Plans an inner equi-join whose right side is a lookup leaf as a hash
    * join that probes the leaf's table. What Catalyst pushed below the join
    * (inferred `isnotnull`, filters on the leaf's columns, column pruning)
    * becomes part of the table's shape: a filter between a broadcast hash
    * join and its build side could not be broadcast. */
  private object Probe extends SparkStrategy {
    def apply(plan: LogicalPlan): Seq[SparkPlan] = plan match {
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
