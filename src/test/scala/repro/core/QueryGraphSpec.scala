package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.query._

class QueryGraphSpec extends AnyFunSuite {

  private val tri = QueryGraph("t",
    Seq(QVertex("a"), QVertex("b"), QVertex("c")),
    Seq(QEdge("e1", "a", "b"), QEdge("e2", "b", "c"), QEdge("e3", "a", "c")))

  test("validation: unknown endpoints rejected") {
    intercept[IllegalArgumentException] {
      QueryGraph("x", Seq(QVertex("a")), Seq(QEdge("e", "a", "zz")))
    }
  }

  test("validation: duplicate names rejected") {
    intercept[IllegalArgumentException] {
      QueryGraph("x", Seq(QVertex("a"), QVertex("a")), Nil)
    }
    intercept[IllegalArgumentException] {
      QueryGraph("x", Seq(QVertex("a"), QVertex("b")),
        Seq(QEdge("e", "a", "b"), QEdge("e", "b", "a")))
    }
  }

  test("validation: query self-loops rejected") {
    intercept[IllegalArgumentException] {
      QueryGraph("x", Seq(QVertex("a")), Seq(QEdge("e", "a", "a")))
    }
  }

  test("validation: cross predicates must reference known variables") {
    intercept[IllegalArgumentException] {
      QueryGraph("x", Seq(QVertex("a"), QVertex("b")), Seq(QEdge("e", "a", "b")),
        vertexEqs = Seq(VertexEqPred("city", Seq("a", "zz"))))
    }
    intercept[IllegalArgumentException] {
      QueryGraph("x", Seq(QVertex("a"), QVertex("b")), Seq(QEdge("e", "a", "b")),
        edgePairs = Seq(EdgePairPred("e", "amt", Lt, "nope", "amt")))
    }
  }

  test("connectivity helpers") {
    assert(tri.isConnected)
    assert(tri.edgesOf("a").map(_.name).toSet == Set("e1", "e3"))
    assert(tri.connecting("c", Set("a", "b")).map(_.name).toSet == Set("e2", "e3"))
    assert(tri.frontier(Set("a")).toSet == Set("b", "c"))
  }

  test("disconnected query detected") {
    val q = QueryGraph("d",
      Seq(QVertex("a"), QVertex("b"), QVertex("c"), QVertex("d")),
      Seq(QEdge("e1", "a", "b"), QEdge("e2", "c", "d")))
    assert(!q.isConnected)
  }

  test("VertexEqPred requires at least two variables") {
    intercept[IllegalArgumentException] { VertexEqPred("city", Seq("a")) }
  }
}
