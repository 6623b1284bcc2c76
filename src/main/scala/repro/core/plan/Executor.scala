package repro.core.plan

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.col
import scala.collection.mutable
import repro.core.{LookupTables, PropertyGraph, Schema}
import repro.core.index._
import repro.core.query._

/** Compiles a [[Plan]] into a Catalyst DataFrame program.
  *
  * Column conventions of the running partial-match DataFrame:
  *  - one ``<var>`` column per matched query vertex (its vertex ID) and per
  *    matched query edge (its edge ID);
  *  - ``<var>__<prop>`` columns for properties already in hand — either
  *    carried for free out of an index's materialized key columns, or fetched
  *    by a *property-store join* against ``vertexStore``/``edgeStore`` (the
  *    analogue of a per-tuple property lookup in a GDBMS).
  *
  * Predicates are applied eagerly: every query predicate starts pending; an
  * access removes the predicates its [[Coverage]] satisfies (filtering the
  * key-column ones on the index), and after every operator each pending
  * predicate whose variables are all matched is evaluated — fetching
  * properties through the property store when the access path did not
  * cover them. This is exactly where index configurations differ in cost.
  *
  * Every index access and property-store read joins the partial match with
  * the index's (or property store's) [[LookupTables]] frame, filtered and
  * projected for the access, on the bound vertex or edge ID. That join is
  * planned as a probe of a broadcast hash table built once per access shape
  * and reused by every later query — the analogue of an index nested-loop
  * lookup "ID → list" (§4.2) — so no join adds a Spark job, a shuffle or a
  * sort to the query's action.
  *
  * The ``__b``, ``__n`` and ``__j`` join-key columns are unique within one
  * Executor and stay in the partial match; the final `select` prunes them.
  */
final class Executor(g: PropertyGraph, q: QueryGraph) {

  private var df: DataFrame = _
  private val matched  = mutable.Set[String]()    // matched vertex and edge variables
  private val avail    = mutable.Set[String]()    // prop columns present
  private val pending  = mutable.LinkedHashSet[QPred](q.preds: _*)
  private val eqLinked = mutable.Map[VertexEqPred, mutable.Set[String]]()
  private var tag      = 0

  def execute(plan: Plan): DataFrame = {
    plan.ops.foreach {
      case ScanOp(v)            => scan(v)
      case ExtendOp(v, as)      => extend(v, as)
      case MultiExtendOp(p, us) => multiExtend(p, us)
    }
    settle()
    val missing = (q.vertices.map(_.name) ++ q.edges.map(_.name)).filterNot(matched)
    require(missing.isEmpty, s"${q.name}: incomplete plan — unmatched variables $missing")
    df.select((q.vertices.map(v => col(v.name)) ++ q.edges.map(e => col(e.name))): _*)
  }

  // ---------------------------------------------------------------- scan

  private def scan(v: String): Unit = {
    require(df == null, "ScanOp must be the first operator")
    val cols = col(Schema.VertexId).as(v) +:
      Schema.VertexProps.map(p => col(p).as(s"${v}__$p"))
    df = g.vertices.select(cols: _*)
    matched += v
    Schema.VertexProps.foreach(p => avail += s"${v}__$p")
    settle() // applies the scan vertex's local predicates on in-hand columns
  }

  // -------------------------------------------------------------- extend

  /** Project/filter/rename one index for joining; returns (df, joinKeyCol,
    * nbrCol or None if renamed to the new vertex). Drops the predicates the
    * index satisfies from the pending set. */
  private def prepIndex(a: Access, newV: String, primary: Boolean): (DataFrame, String, Option[String]) = {
    tag += 1
    val ix  = a.index
    val qe  = a.qe
    val cov = a.coverage(q).getOrElse(
      sys.error(s"${q.name}: ${ix.name} cannot match ${qe.name}: the query does not imply its view"))
    // Literal filters on materialized key columns (the granular lists the
    // access reads); view predicates hold by construction.
    val frame = ix.tables.frame
    val idf = cov.keyed.map(Coverage.keyColumn).reduceOption(_ && _).fold(frame)(frame.where)
    pending --= cov.preds

    // Rename/select: bound key, the matched edge ID, the neighbour, and any
    // key columns carried for free into the partial match.
    val bKey = s"__b$tag"
    val nCol = if (primary) newV else s"__n$tag"
    var sel = Seq(col(ix.boundCol).as(bKey), col("eId").as(qe.name), col("nbr").as(nCol))
    ix.defn.adjProps.foreach { p =>
      val out = s"${qe.name}__$p"
      if (!avail(out)) { sel :+= col(s"adj_$p").as(out); avail += out }
    }
    if (primary) {
      ix.defn.nbrProps.foreach { p =>
        val out = s"${newV}__$p"
        if (!avail(out)) { sel :+= col(s"nbr_$p").as(out); avail += out }
      }
    }
    (idf.select(sel: _*), bKey, if (primary) None else Some(nCol))
  }

  private def extend(newV: String, accesses: Seq[Access]): Unit = {
    require(df != null, "plan must start with a ScanOp")
    accesses.zipWithIndex.foreach { case (a, i) =>
      val primary = i == 0
      val (idf, bKey, nColOpt) = prepIndex(a, newV, primary)
      val cond = col(a.bound.name) === col(bKey)
      df = df.join(idf, nColOpt.fold(cond)(nc => cond && col(newV) === col(nc)))
      matched += a.qe.name
    }
    matched += newV
    settle()
  }

  private def multiExtend(prop: String, units: Seq[(String, Access)]): Unit = {
    require(df != null, "plan must start with a ScanOp")
    val v0 = units.head._1
    units.foreach { case (v, a) =>
      val (idf, bKey, _) = prepIndex(a, v, primary = true)
      require(avail(s"${v}__$prop"),
        s"MULTI-EXTEND on $prop requires the index ${a.index.name} to materialize nbr_$prop")
      val cond = col(a.bound.name) === col(bKey)
      df = df.join(idf, if (v == v0) cond else cond && VertexEqPred(prop, Seq(v, v0)).column(ref, col))
      matched += v; matched += a.qe.name
    }

    // The intersection equated the units' `prop`; record it in the matching
    // VertexEqPred's linkage so settle() doesn't re-filter.
    val unitVars = units.map(_._1).toSet
    q.vertexEqs.filter(p => p.prop == prop && unitVars.subsetOf(p.vars.toSet)).foreach { p =>
      link(p, v0).foreach(c => df = df.where(c))
      eqLinked(p) ++= unitVars
    }
    settle()
  }

  // ------------------------------------------------------ property store

  private def ensureVertexProps(v: String): Unit =
    ensureProps(v, g.vertexStore, Schema.VertexId, Schema.VertexProps)

  private def ensureEdgeProps(e: String): Unit =
    ensureProps(e, g.edgeStore, Schema.EdgeId, Schema.EdgeProps)

  /** Join the property store `props` keyed by `id` for the properties of
    * variable `v` not yet in hand. */
  private def ensureProps(v: String, props: LookupTables, id: String, names: Seq[String]): Unit = {
    val missing = names.filterNot(p => avail(s"${v}__$p"))
    if (missing.isEmpty) return
    tag += 1
    val key = s"__j$tag"
    val sel = props.frame.select((col(id).as(key) +: missing.map(p => col(p).as(s"${v}__$p"))): _*)
    df = df.join(sel, col(v) === col(key))
    missing.foreach(p => avail += s"${v}__$p")
  }

  // ---------------------------------------------------------- settle

  /** Evaluate every pending predicate whose variables are matched, fetching
    * uncovered properties through the property store, in one filter. A
    * vertex equality is applied link by link, as soon as two of its vertices
    * are matched. */
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
    ready.reduceOption(_ && _).foreach(c => df = df.where(c))
  }

  /** Add `v` to the linked vertices of `p`; the filter equating its property
    * with an already-linked one, if any. */
  private def link(p: VertexEqPred, v: String): Option[Column] = {
    val linked = eqLinked.getOrElseUpdate(p, mutable.Set())
    val eq = linked.headOption.map { rep =>
      ensureVertexProps(rep)
      VertexEqPred(p.prop, Seq(v, rep)).column(ref, col)
    }
    linked += v
    eq
  }

  private def ref(v: String, prop: String): Column = col(s"${v}__$prop")
}
