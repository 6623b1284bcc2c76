package aplusbench

import java.io.File
import scala.util.Try

/** Entry point of one benchmark run (see README.md in this directory).
  *
  * {{{
  * Main --workload <sq_reconfig|fraud_secondary|ingest_rw> --seed <n>
  *      --seconds <s> --trace <0|1> --out <dir>
  *      [--scale <x>] [--expect <fingerprint>]
  * }}}
  *
  * Prints every metric as `metric <name> <value> <unit>` and, last, one
  * `RESULT {...}` line; writes the run's events (one JSON line per sample),
  * its spans (traced runs) and a result file under `--out`.
  */
object Main {

  /** `--expect "vertices edges name=rows,name=rows"`, as run.py passes a
    * recorded fingerprint. */
  def parseFingerprint(s: String): Fingerprint = {
    val Array(v, e, rows) = s.split(" ", 3)
    Fingerprint(v.toLong, e.toLong, rows.split(",").filter(_.nonEmpty).map { kv =>
      val Array(k, n) = kv.split("="); k -> n.toLong
    }.toSeq)
  }

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, sys.error(s"missing --$k"))
    val workload = opt("workload")
    val seed     = opt("seed").toLong
    val seconds  = opt("seconds").toDouble
    val tracing  = opt("trace") == "1"
    val out      = new File(opt("out"))
    val scale    = opts.get("scale").map(_.toDouble)
    val expect   = opts.get("expect").map(parseFingerprint)
    out.mkdirs()

    val tag = s"$workload-seed$seed-trace${if (tracing) 1 else 0}"
    val rec = new Record(tracing, new File(out, s"$tag.events.jsonl"))
    val jvm = Json.obj(
      "java" -> System.getProperty("java.version"),
      "max_heap_bytes" -> Runtime.getRuntime.maxMemory,
      "available_processors" -> Runtime.getRuntime.availableProcessors,
      "jvm_args" -> java.lang.management.ManagementFactory.getRuntimeMXBean.getInputArguments.toArray.toSeq)

    val (outcome, settings) = workload match {
      case "ingest_rw" =>
        (rec.span("workload ingest_rw")(Ingest.run(rec, seed, seconds, expect, scale.getOrElse(1.0)))._1,
         Seq("read_every" -> Ingest.ReadEvery.toString, "warm_rounds" -> Ingest.WarmRounds.toString))
      case name =>
        val w = SparkWorkloads.all.find(_.name == name).getOrElse(sys.error(s"unknown workload '$name'"))
        val local = new File(out, "spark-local")
        val spark = BenchSession.start(local)
        try {
          val o = rec.span(s"workload $name") {
            SparkWorkloads.run(w, spark, rec, seed, seconds, expect, scale)
          }._1
          (o, BenchSession.settings(local).filterNot(_._1.endsWith(".dir")) ++
            Seq("index_partitions" -> BenchSession.IndexPartitions.toString,
                "scale" -> scale.getOrElse(w.scale).toString))
        } finally spark.stop()
    }
    rec.event("run_end", "attempted" -> outcome.attempted, "failed" -> outcome.failed)
    rec.close(new File(out, s"$tag.spans.jsonl"))

    rec.metrics.foreach { case (k, (v, u)) => println(s"metric $k ${Json.num(v)} $u") }
    outcome.zeroRowQueries.foreach(q => println(s"zero-row query: $q"))
    val fp = outcome.fingerprint
    val result = Json.obj(
      "workload" -> workload, "seed" -> seed, "seconds" -> seconds, "trace" -> tracing,
      "correct" -> (outcome.failed == 0), "attempted" -> outcome.attempted, "failed" -> outcome.failed,
      "fingerprint" -> Json.obj("vertices" -> fp.vertices, "edges" -> fp.edges,
        "rows" -> Json.obj(fp.rows: _*)),
      "zero_row_queries" -> outcome.zeroRowQueries,
      "settings" -> Json.obj(settings: _*), "jvm" -> jvm, "spans" -> rec.spanCount,
      "metrics" -> Json.obj(rec.metrics.toSeq.map { case (k, (v, u)) =>
        k -> Json.obj("value" -> v, "unit" -> u) }: _*))
    val line = Json(result)
    Try(java.nio.file.Files.writeString(new File(out, s"$tag.result.json").toPath, line + "\n"))
    println("RESULT " + line)
  }
}
