package repro.core

import org.apache.spark.sql.{Column, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Parameters of a synthetic labelled property graph.
  *
  * Substitutes the paper's real datasets (Orkut/LiveJournal/Wiki-topcats/
  * BerkStan, Table 2) with deterministic synthetic graphs that preserve the
  * properties the experiments depend on: degree skew (zipf-like endpoint
  * draw), uniformly-random vertex/edge labels (the paper's ``G_{i,j}``
  * labelling), and the financial properties used by the MagicRecs and
  * money-flow workloads (§5.3–5.4): acc ∈ {CQ=1, SV=2}, city from a city
  * pool, amt ∈ [1, amtMax], date in a 5-year day range, time ∈ [0, timeMax).
  */
final case class GraphSpec(
    name: String,
    nVertices: Long,
    nEdges: Long,
    nVLabels: Int = 1,
    nELabels: Int = 1,
    nCities: Int = 400,
    amtMax: Double = 1000.0,
    nDates: Int = 1825,
    timeMax: Int = 1000000,
    nCurrencies: Int = 5,
    /** Exponent of the endpoint draw ``⌊nV · u^skew⌋``; > 1 yields skewed
      * (heavy-head) degree distributions like real social/web graphs. */
    skew: Double = 2.0,
    seed: Long = 42L,
)

/** Deterministic synthetic property-graph generator (Spark-native). */
object GraphGen {

  /** Partitions of the generating ranges. Each partition draws its own
    * `rand(seed)` stream, so the graph depends on this count; left to
    * `spark.range`, it would follow the session's leaf parallelism (the core
    * count under `local[*]`). 4 is the benchmark harness's pinned
    * `spark.sql.leafNodeDefaultParallelism`, so its recorded fingerprints
    * still hold. */
  val Partitions = 4

  /** Skewed endpoint draw: maps u ~ U[0,1) to a vertex ID in [1, n], with
    * HIGH IDs drawn polynomially more often (degree skew). Hubs live at the
    * top of the ID range so that the workloads' ``ID < k`` anchors (which
    * stand in for the paper's arbitrary fixed-vertex subsets) select typical
    * vertices rather than the hubs. */
  private def skewedId(u: Column, n: Long, skew: Double): Column =
    greatest(lit(1L), lit(n) - (pow(u, lit(skew)) * n).cast(LongType))

  def generate(spark: SparkSession, spec: GraphSpec): PropertyGraph = {
    import spec._
    val s = seed

    val vertices = spark
      .range(1, nVertices + 1, 1, Partitions)
      .select(
        col("id")                                          as Schema.VertexId,
        (rand(s + 10) * nVLabels).cast(IntegerType) + 1    as "vLabel",
        (rand(s + 11) * nCities).cast(IntegerType) + 1     as "city",
        (rand(s + 12) * 2).cast(IntegerType) + 1           as "acc",
      )

    val rawSrc = skewedId(rand(s + 1), nVertices, skew)
    val rawDst = skewedId(rand(s + 2), nVertices, skew)
    val edges = spark
      .range(1, nEdges + 1, 1, Partitions)
      .select(
        col("id") as Schema.EdgeId,
        rawSrc    as "rawSrc",
        rawDst    as "rawDst",
        (rand(s + 3) * nELabels).cast(IntegerType) + 1     as "eLabel",
        round(rand(s + 4) * (amtMax - 1) + 1, 2)           as "amt",
        (rand(s + 5) * nDates).cast(IntegerType)           as "date",
        (rand(s + 6) * timeMax).cast(IntegerType)          as "time",
        (rand(s + 7) * nCurrencies).cast(IntegerType) + 1  as "currency",
      )
      // No self-loops: bump the destination by one (mod nV) when it collides.
      .withColumn(
        Schema.Dst,
        when(col("rawSrc") === col("rawDst"), col("rawDst") % nVertices + 1)
          .otherwise(col("rawDst")))
      .withColumnRenamed("rawSrc", Schema.Src)
      .select(Schema.EdgeId, Schema.Src, Schema.Dst,
              "eLabel", "amt", "date", "time", "currency")

    PropertyGraph(vertices, edges)
  }
}
