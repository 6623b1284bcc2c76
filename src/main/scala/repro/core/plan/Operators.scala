package repro.core.plan

import repro.core.index.Access
import repro.core.query.QueryGraph

sealed trait PlanOp {
  def describe: String = {
    def read(a: Access) = s"${a.qe.name}:${a.index.name}@${a.bound}"
    this match {
      case ScanOp(v)            => s"SCAN($v)"
      case ExtendOp(v, as)      => s"E/I($v via ${as.map(read).mkString(", ")})"
      case MultiExtendOp(p, as) => s"MULTI-EXTEND[$p](${as.map(a => s"${a.reaches} via ${read(a)}").mkString("; ")})"
    }
  }
}
/** Scan the vertex table and bind variable `v` (with its local predicates). */
final case class ScanOp(v: String) extends PlanOp
/** EXTEND/INTERSECT: extend partial matches by `newV`, matching every query
  * edge between `newV` and the matched set — a z-way intersection when
  * `accesses.size > 1` (§4.1). */
final case class ExtendOp(newV: String, accesses: Seq[Access]) extends PlanOp {
  require(accesses.nonEmpty && accesses.forall(_.reaches == newV))
}
/** MULTI-EXTEND: intersect z ≥ 2 lists sorted on a non-ID property `prop`
  * and extend by one new query vertex per list at once, the vertex each
  * access reaches (§4.1). */
final case class MultiExtendOp(prop: String, accesses: Seq[Access]) extends PlanOp {
  require(accesses.size >= 2)
}

/** A physical plan: operator sequence over a query, produced by the DP
  * optimizer and compiled by the Executor into one match program. */
final case class Plan(q: QueryGraph, ops: Seq[PlanOp], estCost: Double) {
  def describe: String = ops.map(_.describe).mkString(" -> ")
}
