package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.PropertyGraph
import repro.core.index.{APlusIndex, IndexStore}
import repro.core.plan._
import repro.core.query._
import repro.workloads.IndexConfigs

/** "Neo4j-like" baseline for §5.6 (Table 7).
  *
  * Neo4j (per §1.1) partitions each vertex's adjacency only by edge label
  * and evaluates vertex-label and property predicates by reading the
  * neighbour's record — no neighbour-label partitioning, no worst-case-
  * optimal multiway intersections, and no cost-based join ordering over
  * index choices. We model that as: the D index configuration (edge-label
  * partitioning only, so every vertex-label check is a property-store
  * join), a fixed heuristic left-deep expansion order (most-constrained
  * scan vertex, then query-vertex order), and no MULTI-EXTEND.
  *
  * The absolute gap to GraphflowDB is far smaller than the paper's
  * (73x–3300x), which also reflects Neo4j's interpreted runtime — our
  * substitute isolates only the access-path mechanisms.
  */
final class BinaryJoinEvaluator(g: PropertyGraph) {

  private val store = new IndexStore(IndexConfigs.D.map(APlusIndex.build(g, _)))

  /** Fixed-order left-deep plan: no optimizer, no secondary indexes. */
  def plan(q: QueryGraph): Plan = {
    def rank(v: QVertex): Int =
      (if (v.idEq.nonEmpty) 8 else 0) + (if (v.idLt.nonEmpty) 4 else 0) +
      (if (v.label.nonEmpty) 2 else 0) + v.propEq.size
    val start = q.vertices.maxBy(rank).name
    var s = Set(start)
    val ops = Vector.newBuilder[PlanOp]
    ops += ScanOp(start)
    while (s.size < q.vertices.size) {
      val nv = q.frontier(s).head
      val accesses = q.connecting(nv, s).map { qe =>
        store.accesses(q, qe, if (s(qe.from)) qe.from else qe.to).head
      }
      ops += ExtendOp(nv, accesses)
      s += nv
    }
    Plan(q, ops.result(), Double.NaN)
  }

  def run(q: QueryGraph): DataFrame = new Executor(g, q).execute(plan(q))

  def count(q: QueryGraph): Long = run(q).count()

  def unpersist(): Unit = store.indexes.foreach(_.unpersist())
}
