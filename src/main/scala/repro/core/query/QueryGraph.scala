package repro.core.query

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.lit

/** Comparison operators of scalar and cross-edge predicates. */
sealed trait CmpOp
case object Lt extends CmpOp
case object Le extends CmpOp
case object Gt extends CmpOp
case object Ge extends CmpOp
case object EqOp extends CmpOp

/** A query vertex with its local (single-variable) constraints. */
final case class QVertex(
    name: String,
    label: Option[Int] = None,
    /** Equality constraints on categorical vertex properties, e.g. acc -> 1 (CQ). */
    propEq: Map[String, Int] = Map.empty,
    idEq: Option[Long] = None,
    /** ``a.ID < k`` anchors used by the paper's MF3/MF5 queries. */
    idLt: Option[Long] = None,
)

/** A scalar predicate on one edge property, e.g. ``time > 950000``. */
final case class EdgeScalarPred(prop: String, op: CmpOp, value: Double)

/** A directed query edge ``from -[name]-> to`` with local constraints. */
final case class QEdge(
    name: String,
    from: String,
    to: String,
    label: Option[Int] = None,
    scalarPreds: Seq[EdgeScalarPred] = Nil,
    idEq: Option[Long] = None,
)

/** One conjunct of a query's WHERE clause: the unit the INDEX STORE, the
  * optimizer and the Executor reason about when deciding which predicates an
  * access path satisfies (see [[repro.core.index.Coverage]]). An index view
  * is a conjunction of `QPred`s over the index's role variables
  * ([[repro.core.index.Role]]).
  *
  * @param vVars vertex variables the predicate relates
  * @param eVars edge variables the predicate relates
  * @param keyProp the property of the predicate's one variable that it
  *                compares with a literal: what an index key column on that
  *                property can satisfy
  * @param readsProps false when the predicate compares variable IDs only, so
  *                   it never needs a property-store lookup
  */
sealed abstract class QPred(val vVars: Seq[String], val eVars: Seq[String],
                            val keyProp: Option[String] = None, val readsProps: Boolean = true) {
  /** The predicate as a Spark Column: `prop(v, p)` resolves property `p` of
    * variable `v`, and `id(v)` its ID. */
  def column(prop: (String, String) => Column, id: String => Column): Column = this match {
    case VLabel(v, l)       => prop(v, "vLabel") === l
    case VProp(v, p, x)     => prop(v, p) === x
    case VIdEq(v, x)        => id(v) === x
    case VIdLt(v, x)        => id(v) < x
    case ELabel(e, l)       => prop(e, "eLabel") === l
    case EIdEq(e, x)        => id(e) === x
    case EScalar(e, sp)     => cmp(prop(e, sp.prop), sp.op, lit(sp.value))
    case VertexEqPred(p, vs) =>
      vs.sliding(2).map { case Seq(a, b) => prop(a, p) === prop(b, p) }.reduce(_ && _)
    case EdgePairPred(e1, p1, op, e2, p2, d) => cmp(prop(e1, p1), op, prop(e2, p2) + lit(d))
  }

  private def cmp(l: Column, op: CmpOp, r: Column): Column = op match {
    case Lt   => l < r
    case Le   => l <= r
    case Gt   => l > r
    case Ge   => l >= r
    case EqOp => l === r
  }

  /** The same predicate over the variables `f` maps this one's to. */
  def rename(f: String => String): QPred = this match {
    case VLabel(v, l)        => VLabel(f(v), l)
    case VProp(v, p, x)      => VProp(f(v), p, x)
    case VIdEq(v, x)         => VIdEq(f(v), x)
    case VIdLt(v, x)         => VIdLt(f(v), x)
    case ELabel(e, l)        => ELabel(f(e), l)
    case EIdEq(e, x)         => EIdEq(f(e), x)
    case EScalar(e, sp)      => EScalar(f(e), sp)
    case VertexEqPred(p, vs) => VertexEqPred(p, vs.map(f))
    case p: EdgePairPred     => p.copy(e1 = f(p.e1), e2 = f(p.e2))
  }
}

final case class VLabel(v: String, label: Int) extends QPred(Seq(v), Nil, Some("vLabel"))
final case class VProp(v: String, prop: String, value: Int) extends QPred(Seq(v), Nil, Some(prop))
final case class VIdEq(v: String, id: Long) extends QPred(Seq(v), Nil, readsProps = false)
final case class VIdLt(v: String, id: Long) extends QPred(Seq(v), Nil, readsProps = false)
final case class ELabel(e: String, label: Int) extends QPred(Nil, Seq(e), Some("eLabel"))
final case class EIdEq(e: String, id: Long) extends QPred(Nil, Seq(e), readsProps = false)
final case class EScalar(e: String, pred: EdgeScalarPred) extends QPred(Nil, Seq(e), Some(pred.prop))

/** Property equality across ≥ 2 query vertices: ``a2.city = a4.city = ...``. */
final case class VertexEqPred(prop: String, vars: Seq[String]) extends QPred(vars, Nil) {
  require(vars.size >= 2, s"VertexEqPred needs >=2 vars, got $vars")
}

/** A cross-edge predicate ``e1.p1 OP e2.p2 + delta`` (the money-flow form). */
final case class EdgePairPred(
    e1: String, p1: String, op: CmpOp, e2: String, p2: String, delta: Double = 0.0)
    extends QPred(Nil, Seq(e1, e2))

/** A subgraph query: the join component of an openCypher MATCH/WHERE.
  *
  * Matching semantics are homomorphisms (no distinctness constraints),
  * applied uniformly across the engine, ground truth, and baselines.
  */
final case class QueryGraph(
    name: String,
    vertices: Seq[QVertex],
    edges: Seq[QEdge],
    vertexEqs: Seq[VertexEqPred] = Nil,
    edgePairs: Seq[EdgePairPred] = Nil,
) {
  require(vertices.nonEmpty, s"$name: no query vertices")
  require(vertices.map(_.name).distinct.size == vertices.size, s"$name: duplicate vertex names")
  require(edges.map(_.name).distinct.size == edges.size, s"$name: duplicate edge names")
  private val vNames = vertices.map(_.name).toSet
  edges.foreach { e =>
    require(vNames(e.from) && vNames(e.to), s"$name: edge ${e.name} references unknown vertex")
    require(e.from != e.to, s"$name: self-loop query edges unsupported (${e.name})")
  }
  vertexEqs.foreach(p => p.vars.foreach(v => require(vNames(v), s"$name: vertexEq on unknown $v")))
  private val eNames = edges.map(_.name).toSet
  edgePairs.foreach { p =>
    require(eNames(p.e1) && eNames(p.e2), s"$name: edgePair on unknown edge")
  }

  /** Every conjunct of the WHERE clause, in evaluation order: each vertex's
    * label, property, ID-equality and ID-bound predicates, then each edge's
    * label, ID-equality and scalar predicates, then the cross predicates. */
  lazy val preds: Seq[QPred] = (
    vertices.flatMap(v =>
      v.label.map(VLabel(v.name, _)) ++ v.propEq.map { case (p, x) => VProp(v.name, p, x) } ++
        v.idEq.map(VIdEq(v.name, _)) ++ v.idLt.map(VIdLt(v.name, _))) ++
    edges.flatMap(e =>
      e.label.map(ELabel(e.name, _)) ++ e.idEq.map(EIdEq(e.name, _)) ++
        e.scalarPreds.map(EScalar(e.name, _))) ++
    vertexEqs ++ edgePairs).distinct

  def vertex(n: String): QVertex = vertices.find(_.name == n).get
  def edge(n: String): QEdge     = edges.find(_.name == n).get

  /** Query edges incident to vertex variable `v`. */
  def edgesOf(v: String): Seq[QEdge] = edges.filter(e => e.from == v || e.to == v)

  /** Query edges connecting `v` to any vertex in `s` (v excluded from s). */
  def connecting(v: String, s: Set[String]): Seq[QEdge] =
    edges.filter(e =>
      (e.from == v && s(e.to)) || (e.to == v && s(e.from)))

  /** Vertex variables adjacent to the set `s` but not in it. */
  def frontier(s: Set[String]): Seq[String] =
    vertices.map(_.name).filterNot(s).filter(v => connecting(v, s).nonEmpty)

  def isConnected: Boolean = {
    if (vertices.size == 1) return true
    var seen = Set(vertices.head.name)
    var grew = true
    while (grew) {
      val next = frontier(seen).toSet
      grew = next.nonEmpty
      seen ++= next
    }
    seen.size == vertices.size
  }
}
