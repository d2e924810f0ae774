package perfbench

import java.io.{DataInputStream, DataOutputStream, File}

import scala.collection.mutable

import repro.core.frames.JoinRec
import repro.core.growth.GrowthPolicy
import repro.core.hhj.{DynamicHHJ, HHJConfig, HHJStats}
import repro.core.spill.{DiskSpillStore, InMemorySpillStore, Serde, SpillStore}
import repro.storage.ResponseTimeModel

/** Record sizes of one input, after the paper's Table 2: small records of
  * 700-1500 B, mixed with large ones of `largeMin`-`largeMax` B at
  * `largeRatio`.
  */
final case class Sizes(largeMin: Int = 0, largeMax: Int = 0, largeRatio: Double = 0.0) {
  def expected: Double = largeRatio * (largeMin + largeMax) / 2.0 + (1 - largeRatio) * 1100.0
}

object Sizes {
  val AllSmall               = Sizes()
  def oneLarge(r: Double)   = Sizes(18 * 1024, 20 * 1024, r)
  def threeLarge(r: Double) = Sizes(8 * 1024, 10 * 1024, r)
}

/** One side of a core join: its declared volume, sizes and key
  * distribution. `skewed` draws keys from the §7.1.1 Normal distribution
  * (mean n/2, σ = n · 8208/985000, clamped to [1, n]); otherwise keys are a
  * seeded permutation of 1..n.
  */
final case class Side(bytes: Long, sizes: Sizes, skewed: Boolean = false)

/** A core workload: the two inputs, the engine's configuration apart from
  * the defaults, and whether spills go to disk with real byte payloads.
  */
final case class CoreSpec(
    build: Side,
    probe: Side,
    memoryFrames: Option[Int], // None: twice the build's declared frames
    growth: GrowthPolicy,
    reloadSpilled: Boolean,
    disk: Boolean,
)

object CoreBench {
  val FrameSize = 32 * 1024
  val GiB       = 1L << 30

  val specs: Map[String, CoreSpec] = Map(
    "core-fit" -> CoreSpec(
      build = Side(2 * GiB, Sizes.AllSmall),
      probe = Side(2 * GiB, Sizes.AllSmall),
      memoryFrames = None,
      growth = GrowthPolicy.NGNS,
      reloadSpilled = false,
      disk = false,
    ),
    "core-spill-ngns" -> CoreSpec(
      build = Side(20 * 512 * FrameSize.toLong, Sizes.AllSmall),
      probe = Side(20 * 512 * FrameSize.toLong, Sizes.AllSmall),
      memoryFrames = Some(512),
      growth = GrowthPolicy.NGNS,
      reloadSpilled = false,
      disk = true,
    ),
    "core-skew-gs" -> CoreSpec(
      build = Side(16 * 512 * FrameSize.toLong, Sizes.oneLarge(0.5), skewed = true),
      probe = Side(8 * 512 * FrameSize.toLong, Sizes.threeLarge(0.1)),
      memoryFrames = Some(512),
      growth = GrowthPolicy.GS,
      reloadSpilled = true,
      disk = true,
    ),
  )

  /** Payload header: the record's index in its input, so the output check
    * sees which records were paired after a round trip through a spill file.
    */
  val PayloadHeader = 16 // key (8) + declared size (4) + payload length (4) in a spill file

  def ident(payload: AnyRef): Long = payload match {
    case a: Array[Byte] => java.nio.ByteBuffer.wrap(a).getLong(0)
    case _              => 0L
  }

  def mix(x: Long): Long = { // splitmix64 finaliser
    var z = x + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Order-independent digest terms: the output digest is the wrapping sum
    * over emitted pairs of `buildTerm * probeTerm`, which a count-by-key
    * join can compute without enumerating pairs.
    */
  def buildTerm(r: JoinRec[AnyRef]): Long = mix(r.key * 31 + r.size) ^ mix(ident(r.payload) + 0x51ED27L)
  def probeTerm(r: JoinRec[AnyRef]): Long = mix(r.key * 37 + r.size + 0x2545F491L) ^ mix(ident(r.payload) - 17) | 1L

  /** Generates one input. Payloads are null (metadata-only) unless `bytes`;
    * a byte payload makes the spilled record exactly its declared size and
    * carries the record's index in its first 8 bytes.
    */
  def generate(side: Side, payloads: Boolean, seed: Long): Array[JoinRec[AnyRef]] = {
    val rnd  = new java.util.Random(seed)
    val n    = math.max(1L, math.round(side.bytes / side.sizes.expected)).toInt
    val keys = new Array[Long](n)
    if (side.skewed) {
      val sigma = n * 8208.0 / 985000.0
      var i     = 0
      while (i < n) { keys(i) = math.max(1L, math.min(n.toLong, math.round(n / 2.0 + rnd.nextGaussian() * sigma))); i += 1 }
    } else {
      var i = 0
      while (i < n) { keys(i) = i + 1L; i += 1 }
      i = n - 1
      while (i > 0) { val j = rnd.nextInt(i + 1); val t = keys(i); keys(i) = keys(j); keys(j) = t; i -= 1 }
    }
    val s = side.sizes
    Array.tabulate(n) { i =>
      val size =
        if (s.largeRatio > 0 && rnd.nextDouble() < s.largeRatio) s.largeMin + rnd.nextInt(s.largeMax - s.largeMin + 1)
        else 700 + rnd.nextInt(801)
      val payload: AnyRef =
        if (payloads) {
          val a = new Array[Byte](size - PayloadHeader)
          java.nio.ByteBuffer.wrap(a).putLong(0, i.toLong)
          a
        } else null
      JoinRec[AnyRef](keys(i), size, payload)
    }
  }

  /** Count-by-key join of the generated inputs, apart from the operator:
    * the output count and digest the operator must reproduce.
    */
  def reference(build: Array[JoinRec[AnyRef]], probe: Array[JoinRec[AnyRef]]): (Long, Long) = {
    val byKey = new mutable.LongMap[Array[Long]]()
    build.foreach { r =>
      val acc = byKey.getOrElseUpdate(r.key, new Array[Long](2))
      acc(0) += 1; acc(1) += buildTerm(r)
    }
    var count, digest = 0L
    probe.foreach { r =>
      val acc = byKey.getOrNull(r.key)
      if (acc != null) { count += acc(0); digest += acc(1) * probeTerm(r) }
    }
    (count, digest)
  }

  /** Spills byte payloads as a length and the bytes. */
  object BytesSerde extends Serde[AnyRef] {
    def write(t: AnyRef, out: DataOutputStream): Unit = {
      val a = t.asInstanceOf[Array[Byte]]
      out.writeInt(a.length); out.write(a)
    }
    def read(in: DataInputStream): AnyRef = {
      val a = new Array[Byte](in.readInt())
      in.readFully(a)
      a
    }
  }
}

/** The output callback: checks each pair's keys and folds it into the
  * digest; with `timed` it also times itself.
  */
final class OutputCheck(timed: Boolean, event: Option[() => Unit]) extends ((JoinRec[AnyRef], JoinRec[AnyRef]) => Unit) {
  var count, digest, badKeys, nanos = 0L

  def apply(b: JoinRec[AnyRef], p: JoinRec[AnyRef]): Unit = {
    if (event.isDefined) event.get()
    if (timed) {
      val t0 = System.nanoTime()
      fold(b, p)
      nanos += System.nanoTime() - t0
    } else fold(b, p)
  }

  private def fold(b: JoinRec[AnyRef], p: JoinRec[AnyRef]): Unit = {
    if (b.key != p.key) badKeys += 1
    count += 1
    digest += CoreBench.buildTerm(b) * CoreBench.probeTerm(p)
  }
}

final class CoreWorkload(name: String, spec: CoreSpec, workDir: File) extends Workload {
  import CoreBench._

  private var build: Array[JoinRec[AnyRef]] = _
  private var probe: Array[JoinRec[AnyRef]] = _
  private var expected                      = (0L, 0L)
  private var cfg: HHJConfig                = _
  private val spillDir                      = new File(workDir, "spill")

  def prepare(seed: Long): Unit = {
    build = null; probe = null // let a previous set-up's inputs go first
    build = generate(spec.build, spec.disk, seed * 1000003L + 1)
    probe = generate(spec.probe, spec.disk, seed * 1000003L + 2)
    expected = reference(build, probe)
    val buildBytes = build.iterator.map(_.size.toLong).sum
    val frames     = spec.memoryFrames.getOrElse((2 * ((buildBytes + FrameSize - 1) / FrameSize)).toInt)
    cfg = HHJConfig(memoryFrames = frames, growth = spec.growth, reloadSpilled = spec.reloadSpilled)
  }

  def describe(): String = {
    val mb = (a: Array[JoinRec[AnyRef]]) => a.iterator.map(_.size.toLong).sum / Metrics.MiB
    f"$name: build ${build.length} records ${mb(build)}%.1f MiB, probe ${probe.length} records ${mb(probe)}%.1f MiB, " +
      f"memory ${cfg.memoryFrames} frames, expected ${expected._1} pairs"
  }

  def op(traced: Boolean, name: String): Op = join(traced, None)

  /** Samples the live heap as the first rounds finish loading (see
    * [[CountingStore]]); the first output pair of round 1 is one such point.
    */
  override def peakOp(name: String, heap: HeapPeak): Op = join(traced = false, Some(heap))

  private def join(traced: Boolean, heap: Option[HeapPeak]): Op = {
    val inner: SpillStore[AnyRef] =
      if (spec.disk) new DiskSpillStore[AnyRef](spillDir, BytesSerde) else new InMemorySpillStore[AnyRef]
    val store = new CountingStore[AnyRef](inner, traced, heap)
    val out   = new OutputCheck(traced, heap.map(_ => () => store.event()))
    val runCfg =
      if (traced) cfg.copy(insertion = Layers.insertion(cfg.insertion), victim = Layers.victim(cfg.victim))
      else cfg
    Layers.reset()
    val attempt = scala.util.Try(Metrics.measured(DynamicHHJ.join(build.iterator, probe.iterator, runCfg, store, out)))
    val leftBehind =
      if (spec.disk) Option(spillDir.list()).map(_.length).getOrElse(0) else store.undeleted
    store.close()
    attempt match {
      case scala.util.Failure(e) => Op(0, 0, failure = Some(e.toString))
      case scala.util.Success((stats, wall, cpu)) =>
        val failure = if (leftBehind > 0) Some(s"$leftBehind spill files left behind") else None
        val layers  = if (traced) layerValues(stats, store, out, wall) else Map.empty[String, Double]
        Op(wall, cpu, failure, check(stats, store, out), layers)
    }
  }

  private def check(stats: HHJStats, store: CountingStore[AnyRef], out: OutputCheck): Option[String] = {
    val problems = Seq(
      (out.badKeys != 0) -> s"${out.badKeys} emitted pairs with unequal keys",
      (out.count != expected._1) -> s"output count ${out.count} != reference ${expected._1}",
      (out.digest != expected._2) -> s"output digest ${out.digest} != reference ${expected._2}",
      (out.count != stats.outputRecords) -> s"emitted ${out.count} != stats.outputRecords ${stats.outputRecords}",
      (store.appendedBytes != stats.totalSpillBytes) ->
        s"appended ${store.appendedBytes} B != stats.totalSpillBytes ${stats.totalSpillBytes}",
      (store.appendedBytes != stats.io.bytesWritten) ->
        s"appended ${store.appendedBytes} B != stats.io.bytesWritten ${stats.io.bytesWritten}",
    ).collect { case (true, msg) => msg }
    if (problems.isEmpty) None else Some(problems.mkString("; "))
  }

  private def layerValues(stats: HHJStats, store: CountingStore[AnyRef], out: OutputCheck, wall: Double): Map[String, Double] = {
    val policy = Layers.policyTotals()
    val spill  = store.totals()
    val layerS = policy("insertion.s") + policy("victim.s") + spill("spill.append_s") + spill("spill.read_s") +
      spill("spill.manage_s") + out.nanos / 1e9
    policy ++ spill ++ Map(
      "frames.round1_fullness"    -> stats.round1AvgFullness,
      "frames.round1_resident_mb" -> stats.round1ResidentBytes / Metrics.MiB,
      "victim.round1_spill_mb"    -> stats.round1BuildSpillBytes / Metrics.MiB,
      "hhj.self_s"                -> (wall - layerS),
      "hhj.rounds"                -> stats.rounds.toDouble,
      "hhj.in_memory_rounds"      -> stats.inMemoryRounds.toDouble,
      "hhj.bnlj_rounds"           -> stats.bnljRounds.toDouble,
      "hhj.role_reversals"        -> stats.roleReversals.toDouble,
      "hhj.max_depth"             -> stats.maxDepthReached.toDouble,
      "hhj.records_processed"     -> (stats.buildRecordsProcessed + stats.probeRecordsProcessed).toDouble,
      "output.calls"              -> out.count.toDouble,
      "output.s"                  -> out.nanos / 1e9,
      "trace.join_s"              -> wall,
    )
  }

  /** The analytic model's CPU seconds for the same join, printed next to
    * the measured time as a calibration reference.
    */
  override def notes(): Seq[String] = {
    val stats = DynamicHHJ.join(build.iterator, probe.iterator, cfg, new InMemorySpillStore[AnyRef], (_: JoinRec[AnyRef], _: JoinRec[AnyRef]) => ())
    Seq(describe(), f"$name: ResponseTimeModel.cpuSeconds = ${ResponseTimeModel.cpuSeconds(stats)}%.3f s")
  }
}
