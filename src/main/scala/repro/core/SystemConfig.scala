package repro.core

import org.apache.spark.sql.DataFrame
import repro.core.index._
import repro.core.plan.{Executor, Optimizer, Plan}
import repro.core.query.QueryGraph

/** One index configuration of the system (e.g. the paper's D, D_s, D_p,
  * D+VB_t, D+VB_c+EB_c): the graph, its built A+ indexes, the INDEX STORE,
  * the catalogue, and the optimizer wired over them.
  */
final case class SystemConfig(
    name: String,
    g: PropertyGraph,
    cat: Catalogue,
    store: IndexStore,
) {
  val optimizer = new Optimizer(store, cat)

  /** Model bytes of the whole configuration (property stores + indexes). */
  lazy val memoryBytes: Long = MemoryModel.configBytes(g, store.indexes)

  /** Edges indexed across all indexes (the paper's |E_indexed| column):
    * every graph edge once (default indexes) plus one per entry of each
    * secondary edge-bound index. */
  lazy val edgesIndexed: Long =
    g.numEdges + store.indexes.filter(_.isEdgeBound).map(_.stats.entries).sum

  def plan(q: QueryGraph): Plan = optimizer.plan(q)

  def run(q: QueryGraph): DataFrame = new Executor(g, q).execute(plan(q))

  def count(q: QueryGraph): Long = run(q).count()

  def unpersist(): Unit = store.indexes.foreach(_.unpersist())
}

object SystemConfig {

  /** Build every index of `defns` over `g` (entries collected to the
    * driver) and wire the stores. The catalogue is built once per graph and
    * can be shared. */
  def build(name: String, g: PropertyGraph, defns: Seq[IndexDefn], cat: Catalogue): SystemConfig =
    SystemConfig(name, g, cat, new IndexStore(defns.map(APlusIndex.build(g, _))))
}
