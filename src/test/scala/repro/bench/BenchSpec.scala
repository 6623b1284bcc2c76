package repro.bench

import scala.collection.mutable.ArrayBuffer
import repro.{SparkSpec, TestFixtures => F}
import repro.bench.Bench.{Contender, Engine}
import repro.core.index.IndexDefn
import repro.core.query.QueryGraph
import repro.workloads.{IndexConfigs, MoneyFlow, SubgraphQueries}

/** The timed comparison behind Tables 3–7 and the renderer of Tables 3–5. */
class BenchSpec extends SparkSpec {

  private val queries = SubgraphQueries.forLabels(2, 2).take(3)
  private val Seq(q1, q2, _) = queries.map(_.name)

  /** A contender that logs its build, every count and its release. It
    * returns `counts(query)`, or 7; with `slowFirst`, its first count call
    * sleeps 0.3 s. Its model memory is `bytes`. */
  private def fake(name: String, log: ArrayBuffer[String], counts: Map[String, Long] = Map.empty,
                   slowFirst: Boolean = false, bytes: Long = 0L): Contender =
    Contender(name, Nil, () => {
      log += s"build $name"
      new Engine {
        private var calls = 0
        def count(q: QueryGraph): Long = {
          if (slowFirst && calls == 0) Thread.sleep(300)
          calls += 1
          log += s"count $name ${q.name}"
          counts.getOrElse(q.name, 7L)
        }
        override def memoryBytes: Long = bytes
        override def release(): Unit = log += s"release $name"
      }
    })

  test("a count that differs from the first contender's fails, naming the query and the contender") {
    val log = ArrayBuffer.empty[String]
    val e = intercept[IllegalArgumentException](Bench.compare(queries,
      Seq(fake("first", log), fake("agrees", log), fake("differs", log, Map(q2 -> 8L)))))
    assert(e.getMessage.contains(s"$q2: differs returned 8, first returned 7"))
  }

  test("each contender is released before the next one is built") {
    val log = ArrayBuffer.empty[String]
    Bench.compare(queries, Seq("A", "B", "C").map(fake(_, log)))
    assert(log.filterNot(_.startsWith("count")) ==
      Seq("build A", "release A", "build B", "release B", "build C", "release C"))
  }

  test("each contender runs the first query once, untimed, before its timed queries") {
    val log = ArrayBuffer.empty[String]
    val runs = Bench.compare(queries, Seq("A", "B").map(fake(_, log, slowFirst = true)))
    for (n <- Seq("A", "B"))
      assert(log.filter(_.startsWith(s"count $n ")) == (q1 +: queries.map(_.name)).map(q => s"count $n $q"))
    assert(runs.flatMap(_.secs).forall(_ < 0.3), runs.map(_.secs))
  }

  test("the |E_indexed| column appears exactly when a configuration has an edge-bound index") {
    val q = Seq(MoneyFlow.twoEdgePath(F.Alpha))
    // cells padded to their column's width, here collapsed to one space
    def rendered(configs: (String, Seq[IndexDefn])*): Seq[String] = Bench.render(q, Bench.compare(q,
      configs.map { case (n, d) => Contender.config(n, F.financial, d, F.financialCat) }))
      .linesIterator.map(_.replaceAll(" +", " ")).toSeq
    val withEB = rendered("D" -> IndexConfigs.D, "D+EB" -> (IndexConfigs.D :+ IndexConfigs.EBplain(F.Alpha)))
    val withVB = rendered("D" -> IndexConfigs.D, "D+VB_t" -> (IndexConfigs.D :+ IndexConfigs.VBt))
    assert(withEB.head.endsWith("| Mm(MB) | |E_indexed| |"), withEB.head)
    val ebRow = withEB.find(_.startsWith("| D+EB")).get.split('|').map(_.trim).filter(_.nonEmpty)
    assert(ebRow.last.toLong > F.financial.numEdges, ebRow.mkString(" "))
    assert(withVB.head.endsWith("| Mm(MB) |"), withVB.head)
    assert(!withVB.exists(_.contains("E_indexed")))
  }

  test("a query with 0 rows shows (0 rows) in place of the speedup") {
    val log = ArrayBuffer.empty[String]
    val zero = Map(q2 -> 0L)
    val out = Bench.render(queries, Bench.compare(queries, Seq(fake("A", log, zero), fake("B", log, zero))))
    val cells = out.linesIterator.find(_.startsWith("| B")).get.split('|').map(_.trim).filter(_.nonEmpty)
    assert(cells(1).matches("""\d+\.\d\d \(\d+\.\d\dx\)"""), cells(1))
    assert(cells(2).matches("""\d+\.\d\d \(0 rows\)"""), cells(2))
    assert(out.linesIterator.toSeq.last == s"counts: ${queries.map(_.name).zip(Seq(7, 0, 7)).map { case (q, n) => s"$q=$n" }.mkString(" ")}")
  }

  test("model memory from the second row on shows its ratio to the first row's") {
    val log = ArrayBuffer.empty[String]
    val runs = Bench.compare(queries, Seq(fake("A", log, bytes = 800000L), fake("B", log, bytes = 904000L)))
    def mem(row: String) =
      Bench.render(queries, runs).linesIterator.find(_.startsWith(s"| $row")).get.split('|').map(_.trim).last
    assert(mem("A") == "0.8")
    assert(mem("B") == "0.9 (1.13x)")
  }

  test("Table 2's header row starts its own line") {
    val out = Table2Runner.run(F.spark, 0.001)
    assert(out.linesIterator.exists(_.startsWith("| name ")), out)
  }
}
