package repro.core.plan

import org.apache.spark.sql.{Column, DataFrame, PlanFrame}
import org.apache.spark.sql.catalyst.expressions.{AttributeReference, BindReferences, Expression}
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{DataType, LongType}
import scala.collection.mutable
import repro.core._
import repro.core.index._
import repro.core.query._

/** Compiles a [[Plan]] into one [[MatchProgram]]: nested loops over lists,
  * run by one [[MatchExec]] as a pipelined index nested-loop join (§4.1–4.2).
  *
  * The partial match is one row of *slots*:
  *  - one ``<var>`` slot per matched query vertex (its vertex ID) and per
  *    matched query edge (its edge ID);
  *  - ``<var>__<prop>`` slots for properties already in hand — either
  *    carried for free out of an index's materialized key columns, or read
  *    from the *property store* (``vertexStore``/``edgeStore``, keyed by ID:
  *    the analogue of a per-tuple property lookup in a GDBMS).
  *
  * SCAN loops over the vertices. Each list access of an E/I or MULTI-EXTEND
  * loops over its granular list of the bound vertex or edge: the list
  * [[LookupTables.lists]] selects with the access's key-column filters
  * (`Coverage.keyColumn`). The primary list of an E/I binds the new vertex;
  * each later one keeps the entries whose neighbour is that vertex. Each
  * MULTI-EXTEND unit after the first keeps the entries whose ``nbr_<prop>``
  * equals the first unit's.
  *
  * Predicates are applied eagerly: every query predicate starts pending; an
  * access removes the predicates its [[Coverage]] satisfies, and after every
  * operator each pending predicate whose variables are all matched is
  * checked (`QPred.column`, bound to the slots), reading properties from
  * the property store when the access path did not cover them. This is
  * exactly where index configurations differ in cost.
  *
  * The query's `count()` is one Spark job of one stage with no shuffle:
  * each task counts its slice's matches and the driver sums them
  * ([[CountExec]]).
  */
final class Executor(g: PropertyGraph, q: QueryGraph) {

  private val slots    = mutable.LinkedHashMap[String, (Int, DataType)]()
  private val loops    = mutable.ArrayBuffer[(Int, Source, Seq[(Int, Int)])]() // step, source, binds
  private val checks   = mutable.ArrayBuffer[(Int, Column)]()                 // loop, predicate
  private val matched  = mutable.Set[String]()    // matched vertex and edge variables
  private val avail    = mutable.Set[String]()    // prop slots present
  private val pending  = mutable.LinkedHashSet[QPred](q.preds: _*)
  private val eqLinked = mutable.Map[VertexEqPred, mutable.Set[String]]()
  private var step     = -1

  def execute(plan: Plan): DataFrame = {
    plan.ops.foreach { op =>
      step += 1
      op match {
        case ScanOp(v) => scan(v)
        case ExtendOp(_, as) =>
          as.zipWithIndex.foreach { case (a, i) => list(a, primary = i == 0, None) }
          settle()
        case MultiExtendOp(p, as) => multiExtend(p, as)
      }
    }
    settle()
    val missing = (q.vertices.map(_.name) ++ q.edges.map(_.name)).filterNot(matched)
    require(missing.isEmpty, s"${q.name}: incomplete plan — unmatched variables $missing")
    val out = q.vertices.map(_.name) ++ q.edges.map(_.name)
    MatchLeaf.frame(g.vertices.sparkSession, out.map(AttributeReference(_, LongType, nullable = false)()),
      MatchProgram(plan.ops.map(_.describe), slots.values.map(_._2).toSeq, checkedLoops, out.map(slot(_))))
  }

  /** The slot named `name`, added with type `t` if new. */
  private def slot(name: String, t: DataType = LongType): Int =
    slots.getOrElseUpdate(name, (slots.size, t))._1

  /** Adds a loop over `source` that writes the columns of `t` into the
    * slots of `binds` (column → slot name). */
  private def loop(source: Source, t: LookupTables, binds: Seq[(String, String)]): Unit =
    loops += ((step, source, binds.map { case (c, s) => (t.columns.indexOf(c), slot(s, t.dataType(c))) }))

  // ---------------------------------------------------------------- scan

  private def scan(v: String): Unit = {
    require(loops.isEmpty, "ScanOp must be the first operator")
    val t = g.vertexStore
    loop(Scan(t.lists(Schema.VertexId, None, Nil)), t,
      (Schema.VertexId -> v) +: Schema.VertexProps.map(p => p -> s"${v}__$p"))
    matched += v
    Schema.VertexProps.foreach(p => avail += s"${v}__$p")
    settle() // applies the scan vertex's local predicates on in-hand slots
  }

  // -------------------------------------------------------------- extend

  /** Loop over the list `a` reads from its bound variable. A primary list
    * binds the vertex `a` reaches and carries the neighbour's key columns
    * in, keeping the entries whose column `same._1` equals slot `same._2`
    * if given; any other list keeps the entries whose neighbour is the
    * reached vertex, an E/I's intersection. Key columns of the adjacent
    * edge are carried in, and the predicates `a` satisfies leave the
    * pending set. */
  private def list(a: Access, primary: Boolean, same: Option[(String, String)]): Unit = {
    require(loops.nonEmpty, "plan must start with a ScanOp")
    val ix = a.index
    val t  = ix.tables
    val v  = a.reaches
    val pick = if (!primary) SortedIs(t.columns.indexOf("nbr"), slot(v))
               else same.fold[Pick](Every) { case (c, s) => ColumnIs(t.columns.indexOf(c), slot(s)) }
    pending --= a.coverage.preds

    var binds = Seq("eId" -> a.qe.name) ++ Option.when(primary)("nbr" -> v)
    def carry(prefix: String, props: Seq[String], owner: String): Unit = props.foreach { p =>
      val out = s"${owner}__$p"
      if (!avail(out)) { binds :+= s"${prefix}_$p" -> out; avail += out }
    }
    carry("adj", ix.defn.adjProps, a.qe.name)
    if (primary) carry("nbr", ix.defn.nbrProps, v)

    val lists = t.lists(ix.boundCol, Some("nbr"), a.coverage.keyed.map(Coverage.keyColumn))
    loop(ListProbe(lists, slot(a.bound.name), pick), t, binds)
    matched += a.qe.name
    matched += v
  }

  private def multiExtend(prop: String, accesses: Seq[Access]): Unit = {
    val v0 = accesses.head.reaches
    accesses.foreach { a =>
      require(a.index.coversNbr(prop),
        s"MULTI-EXTEND on $prop requires the index ${a.index.name} to materialize nbr_$prop")
      list(a, primary = true, Option.when(a.reaches != v0)(s"nbr_$prop" -> s"${v0}__$prop"))
    }

    // The intersection equated the units' `prop`; record it in the matching
    // VertexEqPred's linkage so settle() doesn't re-check.
    val unitVars = accesses.map(_.reaches).toSet
    q.vertexEqs.filter(p => p.prop == prop && unitVars.subsetOf(p.vars.toSet)).foreach { p =>
      link(p, v0).foreach(check)
      eqLinked(p) ++= unitVars
    }
    settle()
  }

  // ------------------------------------------------------ property store

  private def ensureVertexProps(v: String): Unit =
    ensureProps(v, g.vertexStore, Schema.VertexId, Schema.VertexProps)

  private def ensureEdgeProps(e: String): Unit =
    ensureProps(e, g.edgeStore, Schema.EdgeId, Schema.EdgeProps)

  /** Read from the property store `props`, keyed by `id`, the properties of
    * variable `v` not yet in hand. */
  private def ensureProps(v: String, props: LookupTables, id: String, names: Seq[String]): Unit = {
    val missing = names.filterNot(p => avail(s"${v}__$p"))
    if (missing.isEmpty) return
    loop(PropertyRead(props.lists(id, None, Nil), slot(v)), props, missing.map(p => p -> s"${v}__$p"))
    missing.foreach(p => avail += s"${v}__$p")
  }

  // ---------------------------------------------------------- settle

  /** Check every pending predicate whose variables are matched, reading
    * uncovered properties from the property store, after the last loop so
    * far. A vertex equality is applied link by link, as soon as two of its
    * vertices are matched. */
  private def settle(): Unit = {
    val ready = pending.toSeq.flatMap {
      case p: VertexEqPred =>
        val links = p.vars.filter(v => matched(v) && !eqLinked.get(p).exists(_(v))).flatMap { v =>
          ensureVertexProps(v)
          link(p, v)
        }
        if (eqLinked.get(p).exists(_.size == p.vars.size)) pending -= p
        links
      case p if (p.vVars ++ p.eVars).forall(matched) =>
        if (p.readsProps) { p.vVars.foreach(ensureVertexProps); p.eVars.foreach(ensureEdgeProps) }
        pending -= p
        Seq(p.column(ref, col))
      case _ => Nil
    }
    ready.foreach(check)
  }

  /** Add `v` to the linked vertices of `p`; the predicate equating its
    * property with an already-linked one, if any. */
  private def link(p: VertexEqPred, v: String): Option[Column] = {
    val linked = eqLinked.getOrElseUpdate(p, mutable.Set())
    val eq = linked.headOption.map { rep =>
      ensureVertexProps(rep)
      VertexEqPred(p.prop, Seq(v, rep)).column(ref, col)
    }
    linked += v
    eq
  }

  private def check(c: Column): Unit = checks += ((loops.size - 1, c))

  private def ref(v: String, prop: String): Column = col(s"${v}__$prop")

  // ---------------------------------------------------------- program

  /** The loops, each with the conjunction of its checks, resolved against
    * the slots in one analysis and bound to their positions. */
  private def checkedLoops: Seq[Loop] = {
    val byLoop = checks.groupMap(_._1)(_._2).view.mapValues(_.reduce(_ && _)).toSeq
    val bound: Map[Int, Expression] = if (byLoop.isEmpty) Map.empty else {
      val attrs = slots.toSeq.map { case (n, (_, t)) => AttributeReference(n, t, nullable = false)() }
      val resolved = PlanFrame.resolve(g.vertices.sparkSession, byLoop.map(_._2), LocalRelation(attrs))
      byLoop.map(_._1).zip(resolved.map(BindReferences.bindReference(_, attrs))).toMap
    }
    loops.toSeq.zipWithIndex.map { case ((s, source, binds), i) => Loop(s, source, binds, bound.get(i)) }
  }
}
