package repro.bench

import scala.collection.mutable.ArrayBuffer
import org.apache.spark.sql.SparkSession
import repro.core.{PropertyGraph, SystemConfig}
import repro.core.index.{Catalogue, IndexDefn}
import repro.core.query.QueryGraph
import repro.workloads.Datasets

/** Shared benchmark code: the timed comparison every table runs (§5: each
  * system on the same queries, all returning the same answers), the
  * renderer of Tables 3–5, wall-clock timing and table formatting. */
object Bench {

  /** A dataset under the paper's ``G_{i,j}`` labelling: `nVL` vertex
    * labels, `nEL` edge labels. */
  final case class Setting(ds: Datasets.DatasetDef, nVL: Int, nEL: Int) {
    def label: String = s"${ds.name}_{$nVL,$nEL}"
    def generate(spark: SparkSession, scale: Double): PropertyGraph =
      ds.generate(spark, nVL, nEL, scale)
  }

  /** What the comparison runs and measures of one built system. Memory and
    * |E_indexed| stay 0 for the baselines; their table does not show them. */
  trait Engine {
    def count(q: QueryGraph): Long
    /** Shown in the progress line before each timed query. */
    def describe(q: QueryGraph): String = ""
    def memoryBytes: Long = 0L
    def edgesIndexed: Long = 0L
    def release(): Unit = ()
  }

  /** A named system under test, built only when the comparison reaches it.
    * `defns` are its A+ index definitions (empty for the baselines). */
  final case class Contender(name: String, defns: Seq[IndexDefn], build: () => Engine)

  object Contender {
    /** The A+ engine over `g` with the indexes `defns`. */
    def config(name: String, g: PropertyGraph, defns: Seq[IndexDefn], cat: Catalogue): Contender =
      Contender(name, defns, () => {
        val cfg = SystemConfig.build(name, g, defns, cat, 8)
        new Engine {
          def count(q: QueryGraph): Long = cfg.count(q)
          override def describe(q: QueryGraph): String = cfg.plan(q).describe
          override def memoryBytes: Long = cfg.memoryBytes
          override def edgesIndexed: Long = cfg.edgesIndexed
          override def release(): Unit = cfg.unpersist()
        }
      })
  }

  /** One contender's measurements, per query in order: result count and
    * timed seconds. */
  final case class Run(contender: Contender, counts: Seq[Long], secs: Seq[Double],
                       memoryBytes: Long, edgesIndexed: Long) {
    def name: String = contender.name
  }

  /** Builds the contenders one at a time. Each runs the first query once,
    * untimed, to warm its caches and the JIT, then `count` is timed on every
    * query and must equal the first contender's count. Memory and
    * |E_indexed| are read before the contender is released, and it is
    * released before the next one is built. */
  def compare(queries: Seq[QueryGraph], contenders: Seq[Contender]): Seq[Run] = {
    val runs = ArrayBuffer.empty[Run]
    for (c <- contenders) {
      val e = c.build()
      progress(s"built ${c.name}; warming")
      e.count(queries.head)
      val timed = queries.zipWithIndex.map { case (q, i) =>
        progress(s"${c.name} ${q.name}: ${e.describe(q)}")
        val (n, t) = time(e.count(q))
        runs.headOption.foreach { first =>
          require(n == first.counts(i), s"${q.name}: ${c.name} returned $n, ${first.name} returned ${first.counts(i)}")
        }
        (n, t)
      }
      runs += Run(c, timed.map(_._1), timed.map(_._2), e.memoryBytes, e.edgesIndexed)
      e.release()
    }
    runs.toSeq
  }

  /** The factor `num / den` of two times, or `(0 rows)` when the query's
    * count is 0: a ratio of times on no work says nothing. */
  def factor(num: Double, den: Double, rows: Long): String =
    if (rows == 0) "(0 rows)" else speedup(num, den)

  def countsLine(queries: Seq[QueryGraph], run: Run): String =
    "\ncounts: " + queries.zip(run.counts).map { case (q, n) => s"${q.name}=$n" }.mkString(" ")

  /** Tables 3–5: a row per configuration with each query's seconds and, from
    * the second row on, its speedup over the first; then model memory (from
    * the second row on, with its ratio to the first's), and |E_indexed| when
    * some configuration has an edge-bound index; then the agreed counts. */
  def render(queries: Seq[QueryGraph], runs: Seq[Run]): String = {
    val base = runs.head
    val showE = runs.exists(_.contender.defns.exists(_.isEdgeBound))
    val rows = runs.map { r =>
      val cells = queries.indices.map { i =>
        val t = fmtSecs(r.secs(i))
        if (r eq base) t else s"$t ${factor(base.secs(i), r.secs(i), base.counts(i))}"
      }
      val mem = if (r eq base) f"${mb(r.memoryBytes)}%.1f" else memRatio(r.memoryBytes, base.memoryBytes)
      (r.name +: cells :+ mem) ++ Option.when(showE)(r.edgesIndexed.toString)
    }
    val header = ("cfg" +: queries.map(_.name) :+ "Mm(MB)") ++ Option.when(showE)("|E_indexed|")
    table(header, rows) + countsLine(queries, base)
  }

  /** One dataset of Tables 3–5: `configs` (name, index definitions) over
    * `g`, compared on `queries` and rendered under the dataset's line. */
  def configBlock(label: String, g: PropertyGraph, queries: Seq[QueryGraph],
                  configs: Seq[(String, Seq[IndexDefn])]): String = {
    val cat = Catalogue.build(g)
    progress(s"dataset ready: |V|=${g.numVertices} |E|=${g.numEdges}")
    val runs = compare(queries, configs.map { case (n, d) => Contender.config(n, g, d, cat) })
    g.uncache()
    s"\n\n--- $label  (|V|=${g.numVertices} |E|=${g.numEdges}) ---\n" + render(queries, runs)
  }

  /** Immediate progress line (stderr) so long runs show where they are. */
  def progress(msg: String): Unit = {
    Console.err.println(s"[bench] $msg")
    Console.err.flush()
  }

  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def mb(bytes: Long): Double = bytes / 1e6

  /** Model memory in MB with its ratio to `base` bytes: 0.1 MB hides the
    * few-percent overheads the paper reports. */
  def memRatio(bytes: Long, base: Long): String = f"${mb(bytes)}%.1f (${bytes.toDouble / base}%.2fx)"

  def fmtSecs(s: Double): String = f"$s%.2f"

  def speedup(base: Double, x: Double): String = f"(${base / math.max(x, 1e-9)}%.2fx)"

  /** Render an aligned text table. */
  def table(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(r => if (i < r.size) r(i).length else 0).max)
    def line(r: Seq[String]) =
      r.zipWithIndex.map { case (c, i) => c.padTo(widths(i), ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  def banner(title: String): String =
    "\n" + "=" * 78 + s"\n$title\n" + "=" * 78
}
