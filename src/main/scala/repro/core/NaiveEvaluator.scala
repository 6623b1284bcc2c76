package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.query._

/** Ground-truth evaluator: a mechanical translation of a [[QueryGraph]] into
  * a flat Spark SQL multi-join over the edge and vertex tables, with every
  * predicate applied as a WHERE clause. Used by every correctness test to
  * validate the A+ engine, the baselines, and the index-backed plans.
  */
object NaiveEvaluator {

  /** Returns one column per query vertex (its matched vertex ID, named after
    * the variable) and one per query edge (its matched edge ID). */
  def run(g: PropertyGraph, q: QueryGraph): DataFrame = {
    require(q.edges.nonEmpty, s"${q.name}: naive evaluation needs >=1 edge")
    require(q.isConnected, s"${q.name}: disconnected queries unsupported")

    def edgeDf(e: QEdge): DataFrame = {
      val cols =
        col(Schema.EdgeId).as(e.name) +:
        col(Schema.Src).as(s"${e.name}__src") +:
        col(Schema.Dst).as(s"${e.name}__dst") +:
        Schema.EdgeProps.map(p => col(p).as(s"${e.name}__$p"))
      g.edges.select(cols: _*)
    }

    // Join query edges in a connected (BFS) order.
    val ordered = {
      val remaining = scala.collection.mutable.ListBuffer(q.edges: _*)
      val out       = scala.collection.mutable.ListBuffer[QEdge]()
      val seenV     = scala.collection.mutable.Set[String]()
      val first     = remaining.remove(0)
      out += first; seenV += first.from; seenV += first.to
      while (remaining.nonEmpty) {
        val i = remaining.indexWhere(e => seenV(e.from) || seenV(e.to))
        require(i >= 0, s"${q.name}: edge set disconnected")
        val e = remaining.remove(i)
        out += e; seenV += e.from; seenV += e.to
      }
      out.toSeq
    }

    // vertex variable -> the column of the running DataFrame holding its ID
    var vCol = Map[String, String](
      ordered.head.from -> s"${ordered.head.name}__src",
      ordered.head.to   -> s"${ordered.head.name}__dst")
    var df = edgeDf(ordered.head)

    ordered.tail.foreach { e =>
      val right = edgeDf(e)
      val conds = Seq(
        vCol.get(e.from).map(c => col(c) === right(s"${e.name}__src")),
        vCol.get(e.to).map(c => col(c) === right(s"${e.name}__dst"))).flatten
      df = df.join(right, conds.reduce(_ && _))
      if (!vCol.contains(e.from)) vCol += e.from -> s"${e.name}__src"
      if (!vCol.contains(e.to))   vCol += e.to   -> s"${e.name}__dst"
    }

    // Bring in vertex properties for every constrained vertex variable.
    q.preds.filter(_.readsProps).flatMap(_.vVars).distinct.foreach { v =>
      val vp = g.vertices.select(
        (col(Schema.VertexId).as(s"${v}__vId") +:
          Schema.VertexProps.map(p => col(p).as(s"${v}__$p"))): _*)
      df = df.join(vp, col(vCol(v)) === col(s"${v}__vId"))
    }

    q.preds.foreach { p =>
      df = df.where(p.column((v, prop) => col(s"${v}__$prop"), v => col(vCol.getOrElse(v, v))))
    }

    val outCols =
      q.vertices.map(v => col(vCol(v.name)).as(v.name)) ++
      q.edges.map(e => col(e.name))
    df.select(outCols: _*)
  }

  /** Convenience for benches: result cardinality. */
  def count(g: PropertyGraph, q: QueryGraph): Long = run(g, q).count()
}
