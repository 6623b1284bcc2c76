package aplusbench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** Minimal JSON encoding for the harness's events, spans and result line. */
object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c => sb += c
    }
    (sb += '"').toString
  }

  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null"
    else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else d.toString

  def apply(v: Any): String = v match {
    case null                 => "null"
    case s: String            => str(s)
    case b: Boolean           => b.toString
    case i: Int               => i.toString
    case l: Long              => l.toString
    case d: Double            => num(d)
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => str(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case s: Iterable[_]       => s.map(apply).mkString("[", ",", "]")
    case p: Product if p.productArity == 0 => str(p.toString)
    case other                => str(other.toString)
  }

  /** An insertion-ordered object, so printed records keep their field order. */
  def obj(kv: (String, Any)*): mutable.LinkedHashMap[String, Any] = mutable.LinkedHashMap(kv: _*)
}

/** Order statistics over latency samples. */
object Stats {
  /** Nearest-rank percentile (q in [0, 1]) of unsorted samples. */
  def pct(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s = xs.sorted
    s(math.min(s.size - 1, math.max(0, math.ceil(q * s.size).toInt - 1)))
  }
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
  def mean(xs: Iterable[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
}

/** JVM-wide counters read around measured phases. */
object Jvm {
  import java.lang.management.ManagementFactory
  import scala.jdk.CollectionConverters._

  def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum / 1e3

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes(): Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)
}

/** One named span: a timed call into a layer, with the span that caused it. */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long)

/** Everything one run records: structured events (one per sample), metrics
  * with their units, and — when tracing — spans and listener counts.
  *
  * Spans are kept in memory and written out when the run ends. With tracing
  * off `span` only runs its body, so the end-to-end timings carry no tracing
  * work beyond the timers the harness needs for them anyway.
  */
final class Record(val tracing: Boolean, eventsFile: File) {
  private val origin = System.nanoTime()
  private val spans  = mutable.ArrayBuffer[Span]()
  private var stack  = List(0) // 0 is the run itself
  private var nextId = 1
  private val events = new PrintWriter(eventsFile, "UTF-8")

  /** Metrics in emission order: name -> (value, unit). */
  val metrics = mutable.LinkedHashMap[String, (Double, String)]()

  def put(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)

  /** Time `f`, recording a span named `name` under the innermost open span
    * when tracing. Returns the result and the elapsed seconds. */
  def span[A](name: String)(f: => A): (A, Double) = {
    val id = nextId
    if (tracing) { nextId += 1; stack = id :: stack }
    val t0 = System.nanoTime()
    try {
      val a = f
      (a, (System.nanoTime() - t0) / 1e9)
    } finally if (tracing) {
      stack = stack.tail
      spans += Span(id, stack.head, name, t0 - origin, System.nanoTime() - origin)
    }
  }

  /** A structured event: one JSON line in the run's event log. */
  def event(kind: String, fields: (String, Any)*): Unit =
    events.println(Json(Json.obj(("event" -> kind) +: fields: _*)))

  def close(spansFile: File): Unit = {
    events.close()
    if (tracing) {
      val w = new PrintWriter(spansFile, "UTF-8")
      try spans.foreach { s =>
        w.println(Json(Json.obj("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
          "start_ns" -> s.startNs, "end_ns" -> s.endNs)))
      } finally w.close()
    }
  }

  def spanCount: Int = spans.size
}
