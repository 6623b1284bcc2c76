package repro.bench

import org.apache.spark.sql.SparkSession
import repro.baselines.{BinaryJoinEvaluator, FrontierEvaluator}
import repro.bench.Bench.{Contender, Engine, Setting}
import repro.core.index.Catalogue
import repro.core.query.QueryGraph
import repro.workloads.{Datasets, IndexConfigs, SubgraphQueries}

/** Table 7 (§5.6): GraphflowDB (our engine, D_p configuration) vs the
  * TigerGraph-like frontier engine vs the Neo4j-like binary-join engine on
  * SQ1, SQ2, SQ3 and SQ13 over LJ_{12,2} and WT_{4,2}.
  */
object Table7Runner {

  val settings: Seq[Setting] = Seq(Setting(Datasets.LJ, 12, 2), Setting(Datasets.WT, 4, 2))
  val queryNames: Seq[String] = Seq("SQ1", "SQ2", "SQ3", "SQ13")

  def run(spark: SparkSession, scale: Double = 1.0): String =
    Bench.banner(s"Table 7: GF(D_p) vs TigerGraph-like vs Neo4j-like (scale=$scale)") +
      settings.map { s =>
        val g = s.generate(spark, scale)
        val cat = Catalogue.build(g)
        val queries = queryNames.map(SubgraphQueries.byName(s.nVL, s.nEL, _))
        val title = s"\n\n--- ${s.label}  (|V|=${g.numVertices} |E|=${g.numEdges}) ---\n"
        val runs = Bench.compare(queries, Seq(
          Contender.config("GF (D_p)", g, IndexConfigs.Dp, cat),
          Contender("TG-like", Nil, () => new Engine {
            def count(q: QueryGraph): Long = FrontierEvaluator.count(g, q)
          }),
          Contender("N4-like", Nil, () => {
            val n4 = new BinaryJoinEvaluator(g)
            new Engine {
              def count(q: QueryGraph): Long = n4.count(q)
              override def release(): Unit = n4.unpersist()
            }
          })))
        g.uncache()
        val gf = runs.head
        val rows = runs.map { r =>
          r.name +: queries.indices.map { i =>
            val t = Bench.fmtSecs(r.secs(i))
            if (r eq gf) t else s"$t ${Bench.factor(r.secs(i), gf.secs(i), gf.counts(i))}"
          }
        }
        title + Bench.table("system" +: queryNames, rows) +
          "\n(parenthesised factor = system time / GF time, i.e. slowdown vs GF, as in the paper)" +
          Bench.countsLine(queries, gf)
      }.mkString
}
