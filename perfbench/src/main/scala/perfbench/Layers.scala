package perfbench

import java.util.concurrent.ConcurrentLinkedQueue

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import repro.core.frames.{JoinRec, PartitionState}
import repro.core.insertion.{InsertionPolicy, SearchStats}
import repro.core.spill.{SpillFile, SpillStore}
import repro.core.victim.{VictimContext, VictimPolicy}

/** Wrappers around the operator's public traits. They count and (when
  * `timed`) time every call the engine makes into a layer, so per-layer
  * figures come from outside the program.
  *
  * Policies are created by the engine through `HHJConfig` factories, inside
  * Spark tasks too, so every wrapper instance registers itself here and the
  * benchmark sums the registered instances after each join. Each instance
  * is used by one thread; the queue is the only shared state.
  */
object Layers {
  private val insertions = new ConcurrentLinkedQueue[TimedInsertion]()
  private val victims    = new ConcurrentLinkedQueue[TimedVictim]()

  def reset(): Unit = { insertions.clear(); victims.clear() }

  def insertion(make: () => InsertionPolicy): () => InsertionPolicy =
    () => { val w = new TimedInsertion(make()); insertions.add(w); w }

  def victim(make: () => VictimPolicy): () => VictimPolicy =
    () => { val w = new TimedVictim(make()); victims.add(w); w }

  /** Sums over the policy wrappers created since the last `reset`. */
  def policyTotals(): Map[String, Double] = {
    val ins = insertions.asScala
    val vic = victims.asScala
    Map(
      "insertion.calls"           -> ins.iterator.map(_.calls).sum.toDouble,
      "insertion.s"               -> ins.iterator.map(_.nanos).sum / 1e9,
      "insertion.frames_searched" -> ins.iterator.map(_.searched).sum.toDouble,
      "victim.calls"              -> vic.iterator.map(_.calls).sum.toDouble,
      "victim.s"                  -> vic.iterator.map(_.nanos).sum / 1e9,
    )
  }
}

final class TimedInsertion(inner: InsertionPolicy) extends InsertionPolicy {
  var calls, nanos, searched = 0L
  def name: String = inner.name

  def chooseFrame[T](p: PartitionState[T], size: Int, stats: SearchStats): Int = {
    val before = stats.framesSearched
    val t0     = System.nanoTime()
    val idx    = inner.chooseFrame(p, size, stats)
    nanos += System.nanoTime() - t0
    calls += 1
    searched += stats.framesSearched - before
    idx
  }

  override def inserted[T](p: PartitionState[T], idx: Int, size: Int): Unit = inner.inserted(p, idx, size)
}

final class TimedVictim(inner: VictimPolicy) extends VictimPolicy {
  var calls, nanos = 0L
  def name: String = inner.name

  def choose[T](candidates: IndexedSeq[PartitionState[T]], ctx: VictimContext): Int = {
    val t0 = System.nanoTime()
    val id = inner.choose(candidates, ctx)
    nanos += System.nanoTime() - t0
    calls += 1
    id
  }
}

/** Spill store wrapper. It always counts what the engine appends, so the
  * accounting checks run on every join; with `timed` it also times every
  * call and counts what is read back.
  *
  * With `heap`, it samples the live heap at the first append or output pair
  * after each read starts: the moment a round has loaded what it read (a
  * hash table built from a spill file, a reloaded partition). Only the
  * first `HeapSamples` such moments are sampled, since each costs a full
  * collection.
  */
final class CountingStore[T](inner: SpillStore[T], timed: Boolean, heap: Option[HeapPeak]) extends SpillStore[T] {
  val files = ArrayBuffer.empty[CountingFile[T]]
  var manageNanos = 0L
  private var armed   = true
  private var samples = 0

  /** An append or an output pair: samples the heap if a read came before. */
  def event(): Unit =
    if (armed && heap.isDefined) {
      armed = false
      samples += 1
      if (samples <= CountingStore.HeapSamples) heap.get.sample()
    }

  def readStarted(): Unit = { event(); armed = true }

  def newFile(tag: String): SpillFile[T] = {
    val t0 = System.nanoTime()
    val f  = new CountingFile[T](inner.newFile(tag), timed, this)
    files += f
    manageNanos += System.nanoTime() - t0
    f
  }

  def close(): Unit = inner.close()

  private def sum(f: CountingFile[T] => Long): Long = files.iterator.map(f).sum
  def appendCalls: Long   = sum(_.appendCalls)
  def appendedBytes: Long = sum(_.appendedBytes)
  def undeleted: Int      = files.count(!_.deleted)

  def totals(): Map[String, Double] = Map(
    "spill.append_calls" -> appendCalls.toDouble,
    "spill.append_s"     -> sum(_.appendNanos) / 1e9,
    "spill.written_mb"   -> appendedBytes / Metrics.MiB,
    "spill.read_s"       -> sum(_.readNanos) / 1e9,
    "spill.read_mb"      -> sum(_.readBytes) / Metrics.MiB,
    "spill.files"        -> files.size.toDouble,
    "spill.seq_writes"   -> sum(_.seqWrites).toDouble,
    "spill.rand_writes"  -> sum(_.randWrites).toDouble,
    "spill.manage_s"     -> manageNanos / 1e9,
  )
}

object CountingStore {
  val HeapSamples = 24
}

final class CountingFile[T](inner: SpillFile[T], timed: Boolean, owner: CountingStore[T]) extends SpillFile[T] {
  var appendCalls, appendNanos, appendedBytes, seqWrites, randWrites = 0L
  var readNanos, readBytes = 0L
  var deleted = false

  def append(recs: Iterator[JoinRec[T]], nFrames: Long): Unit = {
    owner.event()
    val counted = recs.map { r => appendedBytes += r.size; r }
    if (timed) {
      val t0 = System.nanoTime()
      inner.append(counted, nFrames)
      appendNanos += System.nanoTime() - t0
    } else inner.append(counted, nFrames)
    appendCalls += 1
    if (nFrames > 1) seqWrites += 1 else randWrites += 1
  }

  def readAll(): Iterator[JoinRec[T]] = {
    owner.readStarted()
    if (!timed) inner.readAll()
    else {
      val t0 = System.nanoTime()
      val it = inner.readAll()
      readNanos += System.nanoTime() - t0
      new Iterator[JoinRec[T]] {
        def hasNext: Boolean = it.hasNext
        def next(): JoinRec[T] = {
          val t1 = System.nanoTime()
          val r  = it.next()
          readNanos += System.nanoTime() - t1
          readBytes += r.size
          r
        }
      }
    }
  }

  def bytes: Long   = inner.bytes
  def records: Long = inner.records
  def frames: Long  = inner.frames

  def delete(): Unit = {
    val t0 = System.nanoTime()
    inner.delete()
    owner.manageNanos += System.nanoTime() - t0
    deleted = true
  }
}
