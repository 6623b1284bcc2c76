package org.apache.spark.sql

import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan

/** A DataFrame over a logical plan. `Dataset.ofRows` is private to Spark's
  * SQL package, hence this file's package. */
object PlanFrame {
  def apply(spark: SparkSession, plan: LogicalPlan): DataFrame =
    classic.Dataset.ofRows(spark.asInstanceOf[classic.SparkSession], plan)
}
