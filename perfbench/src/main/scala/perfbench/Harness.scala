package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable.ArrayBuffer

/** Outcome of one operation (one complete join). `failure` marks an
  * operation that did not complete cleanly (it threw, or left a spill file
  * behind); `wrong` marks a completed one whose output or accounting is
  * incorrect.
  */
final case class Op(
    wallS: Double,
    cpuS: Double,
    failure: Option[String] = None,
    wrong: Option[String] = None,
    layers: Map[String, Double] = Map.empty,
)

/** A workload as the harness drives it. */
trait Workload {
  /** One-time start cost (the Spark session); none for core workloads. */
  def start(): Unit = ()
  /** Untimed joins after set-up, counted in `setup_s`. */
  def warmups: Int = 2
  /** Generates and materialises the inputs and their reference answer. */
  def prepare(seed: Long): Unit
  /** One complete, checked join, named `name` in the trace. */
  def op(traced: Boolean, name: String): Op
  /** One untimed join that measures its peak live heap. */
  def peakOp(name: String, heap: HeapPeak): Op = heap.periodic(op(traced = false, name))
  /** Reference lines printed to standard error after set-up. */
  def notes(): Seq[String] = Nil
  def close(): Unit = ()
}

object Metrics {
  val MiB = 1024.0 * 1024.0

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.size
    if (n == 0) 0.0 else if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def mean(xs: Iterable[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  private val osBean = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** CPU time of the whole process (all threads), in seconds. */
  def processCpuS(): Double = osBean.getProcessCpuTime / 1e9

  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Wall and process-CPU time of `f`. */
  def measured[A](f: => A): (A, Double, Double) = {
    val c0 = processCpuS()
    val t0 = System.nanoTime()
    val a  = f
    val w  = (System.nanoTime() - t0) / 1e9
    (a, w, processCpuS() - c0)
  }

  def num(d: Double): String = if (d.isNaN || d.isInfinite) "0.0" else d.toString

  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'          => "\\\""
      case '\\'         => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c            => c.toString
    } + "\""
}

/** Peak live heap of one join, as the highest heap occupancy right after
  * a forced full collection, minus the occupancy before the join. The
  * collections slow the join, so this is never a timed join.
  */
final class HeapPeak {
  private val mem = ManagementFactory.getMemoryMXBean

  private def liveAfterGc(): Long = { System.gc(); mem.getHeapMemoryUsage.getUsed }

  liveAfterGc()
  private val base      = liveAfterGc()
  @volatile private var peak = base

  /** Collects now and keeps the occupancy if it is the highest. */
  def sample(): Unit = { val live = liveAfterGc(); synchronized { peak = math.max(peak, live) } }

  def peakMb: Double = (peak - base) / Metrics.MiB

  /** Runs `f` while a sampler thread collects, waits three times as long
    * as that collection took (5 to 50 ms), and repeats. For joins whose
    * phases the benchmark cannot see from outside.
    */
  def periodic[A](f: => A): A = {
    @volatile var running = true
    val sampler = new Thread(() => {
      while (running) {
        val t0 = System.nanoTime()
        sample()
        Thread.sleep(math.min(50L, math.max(5L, 3 * (System.nanoTime() - t0) / 1000000L)))
      }
    }, "heap-peak-sampler")
    sampler.setDaemon(true)
    sampler.start()
    try f finally { running = false; sampler.join() }
  }
}

/** Runs one workload: set-up, warm-up, the timed loop, and the report. */
final class Harness(w: Workload, seed: Long, seconds: Int, trace: Boolean, notes: Boolean, spans: Spans) {
  val Prepares = 3
  val MinOps   = 3

  private val ops = ArrayBuffer.empty[Op]

  /** Every join starts from a collected heap, so one join's garbage is not
    * collected on the next one's time.
    */
  private def run(what: String)(join: => Op): Op = {
    System.gc()
    val t0 = System.nanoTime()
    val op = join
    spans.record(what, "", t0, System.nanoTime(), op.layers + ("cpu_s" -> op.cpuS))
    ops += op
    op.failure.foreach(m => Console.err.println(s"[perfbench] $what failed: $m"))
    op.wrong.foreach(m => Console.err.println(s"[perfbench] $what incorrect: $m"))
    op
  }

  def result(): String = {
    val rt     = ManagementFactory.getRuntimeMXBean
    val jvmS   = math.max(0L, System.currentTimeMillis() - rt.getStartTime) / 1e3
    val (_, startS) = Metrics.timed(spans.span("setup.start")(w.start()))
    val prepS = (1 to Prepares).map(i => Metrics.timed(spans.span(s"setup.prepare.$i")(w.prepare(seed)))._2)
    val (_, warmS) = Metrics.timed((1 to w.warmups).foreach { i =>
      val name = s"setup.warmup.$i"
      run(name)(w.op(traced = false, name))
    })
    val setupS = jvmS + startS + Metrics.median(prepS) + warmS
    Console.err.println(f"[perfbench] setup: jvm $jvmS%.3f s, start $startS%.3f s, " +
      s"prepare ${prepS.map(s => f"$s%.3f").mkString("/")} s, warm-up " + f"$warmS%.3f s")
    if (notes) w.notes().foreach(n => Console.err.println(s"[perfbench] $n"))

    val timedOps = ArrayBuffer.empty[Op]
    val t0       = System.nanoTime()
    while (timedOps.size < MinOps || System.nanoTime() - t0 < seconds * 1e9) {
      val name = s"join.${timedOps.size + 1}"
      timedOps += run(name)(w.op(trace, name))
    }

    val metrics: Seq[(String, Double, String)] =
      if (trace) {
        val heap = new HeapPeak
        run("heap-peak")(w.peakOp("heap-peak", heap))
        LayerSet.report(timedOps.toSeq) :+ (("heap.peak_mb", heap.peakMb, "MB"))
      } else
        Seq(
          ("join_s", Metrics.median(timedOps.map(_.wallS).toSeq), "s"),
          ("cpu_s", Metrics.median(timedOps.map(_.cpuS).toSeq), "s"),
          ("setup_s", setupS, "s"),
        )
    w.close()
    Console.err.println(
      s"[perfbench] ${timedOps.size} timed joins: " + timedOps.map(o => f"${o.wallS}%.3f").mkString(" "))

    val attempted = ops.size
    val failed    = ops.count(_.failure.isDefined)
    val correct   = ops.forall(o => o.failure.isDefined || o.wrong.isEmpty)
    val ms = metrics.map { case (n, v, u) =>
      s"${Metrics.str(n)}: {\"value\": ${Metrics.num(v)}, \"unit\": ${Metrics.str(u)}}"
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

/** Coarse spans (set-up, each join, each Spark stage), kept in memory and
  * written out as JSON when the run ends.
  */
final class Spans {
  private final case class Span(name: String, parent: String, startNs: Long, endNs: Long, attrs: Map[String, Double])
  private val origin      = System.nanoTime()
  private val originEpoch = System.currentTimeMillis()
  private val done        = ArrayBuffer.empty[Span]

  def span[A](name: String)(f: => A): A = {
    val t0 = System.nanoTime()
    try f finally record(name, "", t0, System.nanoTime(), Map.empty)
  }

  def record(name: String, parent: String, startNs: Long, endNs: Long, attrs: Map[String, Double]): Unit =
    synchronized { done += Span(name, parent, startNs - origin, endNs - origin, attrs) }

  /** A span timed in epoch milliseconds (as Spark reports stages). */
  def recordEpoch(name: String, parent: String, startMs: Long, endMs: Long): Unit =
    synchronized { done += Span(name, parent, (startMs - originEpoch) * 1000000L, (endMs - originEpoch) * 1000000L, Map.empty) }

  def json: String = synchronized {
    done.sortBy(_.startNs).map { s =>
      val attrs = s.attrs.toSeq.sortBy(_._1).map { case (k, v) => s"${Metrics.str(k)}: ${Metrics.num(v)}" }
      s"""{"name": ${Metrics.str(s.name)}, "parent": ${Metrics.str(s.parent)}, "start_s": ${s.startNs / 1e9}, """ +
        s""""end_s": ${s.endNs / 1e9}, "attrs": {${attrs.mkString(", ")}}}"""
    }.mkString("[\n", ",\n", "\n]\n")
  }
}
