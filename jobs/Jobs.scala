package repro.jobs

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import repro.bench._

/** Entrypoints, one per reproduced table/section. Each prints its table and
  * writes it to `bench/bench_results/<name>.txt` under the working directory.
  *
  * Usage: sbt "runMain repro.jobs.Table3Job 0.05", or
  * spark-submit --class repro.jobs.Table3Job repro.jar [scale]
  * `scale` (default 1.0) scales the synthetic datasets (which are themselves
  * ~1/200 of the paper's graphs).
  */
object Jobs {

  /** 16 shuffle partitions (adaptive execution coalesces further) and no
    * size-based broadcast: the Executor picks its own joins. Spark logs
    * only warnings and errors, so the tables are not lost in its INFO lines. */
  def session(name: String): SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", 16)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def save(name: String, out: String): Unit = {
    println(out)
    val dir = Paths.get("bench", "bench_results")
    Files.createDirectories(dir)
    Files.write(dir.resolve(s"$name.txt"), out.getBytes(UTF_8))
  }

  /** Runs a Spark table job at the scale given as the first argument. */
  def run(name: String, args: Array[String])(table: (SparkSession, Double) => String): Unit = {
    val s = session(name)
    try save(name, table(s, args.headOption.fold(1.0)(_.toDouble))) finally s.stop()
  }
}

object Table2Job { def main(args: Array[String]): Unit = Jobs.run("table2", args)(Table2Runner.run) }
object Table3Job { def main(args: Array[String]): Unit = Jobs.run("table3", args)(Table3Runner.run) }
object Table4Job { def main(args: Array[String]): Unit = Jobs.run("table4", args)(Table4Runner.run) }
object Table5Job { def main(args: Array[String]): Unit = Jobs.run("table5", args)(Table5Runner.run) }
object Table6Job { def main(args: Array[String]): Unit = Jobs.run("table6", args)(Table6Runner.run) }
object Table7Job { def main(args: Array[String]): Unit = Jobs.run("table7", args)(Table7Runner.run) }

object Section3Job { def main(args: Array[String]): Unit = Jobs.save("section3", Section3Runner.run()) }
object Section5Job { def main(args: Array[String]): Unit = Jobs.save("section55", Section5Runner.run()) }
