package org.apache.spark.sql

import scala.reflect.ClassTag
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.QueryPlanningTracker
import org.apache.spark.sql.catalyst.expressions.{Alias, Expression}
import org.apache.spark.sql.catalyst.plans.logical.{LogicalPlan, Project}

/** A DataFrame over a logical plan. `Dataset.ofRows` is private to Spark's
  * SQL package, hence this file's package. */
object PlanFrame {
  def apply(spark: SparkSession, plan: LogicalPlan): DataFrame =
    classic.Dataset.ofRows(spark.asInstanceOf[classic.SparkSession], plan)

  /** `columns` resolved against the output of `plan` (names, implicit
    * casts) in one run of the analyzer, without a Dataset around them. */
  def resolve(spark: SparkSession, columns: Seq[Column], plan: LogicalPlan): Seq[Expression] = {
    val s = spark.asInstanceOf[classic.SparkSession]
    val named = columns.zipWithIndex.map { case (c, i) => Alias(s.expression(c), s"_$i")() }
    s.sessionState.analyzer.executeAndCheck(Project(named, plan), new QueryPlanningTracker) match {
      case Project(list, _) => list.map { case Alias(e, _) => e }
      case other            => throw new IllegalStateException(s"unexpected analyzed plan:\n$other")
    }
  }

  /** `rdd.mapPartitionsInternal(f)`, private to Spark. Unlike
    * `RDD.mapPartitions`, it runs no closure cleaner over `f` on each call,
    * so `f` must capture only what its tasks read. */
  def mapPartitions[T, U: ClassTag](rdd: RDD[T])(f: Iterator[T] => Iterator[U]): RDD[U] =
    rdd.mapPartitionsInternal(f)
}
