package perfbench

import java.io.File
import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}

import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{count, lit, pmod, sum, xxhash64}

import repro.SynthData
import repro.core.hhj.HHJConfig
import repro.spark.{DynamicHHJExec, HHJStrategy}

/** Stage and task figures of the Spark jobs run under one job group. */
final class StageListener(spans: Spans) extends SparkListener {
  final case class Stage(id: Int, isJoin: Boolean, runS: Double, gcS: Double, shuffleWriteBytes: Long)

  val stages    = new ConcurrentLinkedQueue[Stage]()
  val tasks     = new ConcurrentLinkedQueue[(Int, Double)]()
  val endedJobs = ConcurrentHashMap.newKeySet[Int]()

  def reset(): Unit = { stages.clear(); tasks.clear() }

  /** A stage runs the operator if one of its RDDs was made in the
    * operator's scope (its node name, without the `Exec` suffix).
    */
  private def runsJoin(info: org.apache.spark.scheduler.StageInfo): Boolean =
    info.rddInfos.exists(_.scope.exists(_.name == "DynamicHHJ"))

  /** The operation the next stages belong to, for their spans. */
  @volatile var current = "setup"

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    val info = e.stageInfo
    val tm   = info.taskMetrics
    val join = runsJoin(info)
    stages.add(Stage(info.stageId, join, tm.executorRunTime / 1e3, tm.jvmGCTime / 1e3, tm.shuffleWriteMetrics.bytesWritten))
    for (s <- info.submissionTime; c <- info.completionTime)
      spans.recordEpoch(s"spark.stage.${info.stageId}${if (join) ".join" else ""}", current, s, c)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    if (e.taskMetrics != null) tasks.add((e.stageId, e.taskMetrics.executorRunTime / 1e3))

  override def onJobEnd(e: SparkListenerJobEnd): Unit = endedJobs.add(e.jobId)

  /** Waits until every job of `jobIds` has been delivered to this listener. */
  def awaitJobs(jobIds: Seq[Int]): Unit = {
    val deadline = System.nanoTime() + 30e9.toLong
    while (!jobIds.forall(endedJobs.contains) && System.nanoTime() < deadline) Thread.sleep(2)
  }

  def metrics(): Map[String, Double] = {
    val st        = stages.asScala.toSeq
    val joinIds   = st.filter(_.isJoin).map(_.id).toSet
    val taskTimes = tasks.asScala.collect { case (s, t) if joinIds(s) => t }.toSeq
    val med       = Metrics.median(taskTimes)
    Map(
      "spark.join_stage_s"              -> st.filter(_.isJoin).map(_.runS).sum,
      "spark.exchange_stage_s"          -> st.filter(s => !s.isJoin && s.shuffleWriteBytes > 0).map(_.runS).sum,
      "spark.shuffle_write_mb"          -> st.map(_.shuffleWriteBytes).sum / Metrics.MiB,
      "spark.gc_s"                      -> st.map(_.gcS).sum,
      "spark.join_task_max_over_median" -> (if (med > 0) taskTimes.max / med else 0.0),
    )
  }
}

/** SF 0.25 lineitem ⋈ orders through `HHJStrategy`, with a digest aggregate
  * over every output column, in local mode with broadcast joins and
  * adaptive execution off.
  */
final class SparkWorkload(workDir: File, spans: Spans) extends Workload {
  val Sf                = 0.25
  val ShufflePartitions = 8
  val DigestModulus     = 2147483647L
  /** 512 KB per task: 64 frames of 8 KB. */
  val Cfg = HHJConfig(memoryFrames = 64, frameSize = 8 * 1024)

  private var spark: SparkSession   = _
  private var listener: StageListener = _
  private var li: DataFrame         = _
  private var ord: DataFrame        = _
  private var liRows                = 0L
  private var expectedDigest        = 0L
  private var builtinS              = 0.0
  private val tmpDir                = new File(System.getProperty("java.io.tmpdir"))

  override def warmups: Int = 5

  override def start(): Unit = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors())
    spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", new File(workDir, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(workDir, "warehouse").getPath)
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.sql.adaptive.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    listener = new StageListener(spans)
    spark.sparkContext.addSparkListener(listener)
  }

  private def query(): DataFrame = {
    val joined = li.join(ord, li("l_orderkey") === ord("o_orderkey"))
    val cols   = joined.columns.toSeq.map(c => joined(c))
    joined.agg(count(lit(1)), sum(pmod(xxhash64(cols: _*), lit(DigestModulus))))
  }

  def prepare(seed: Long): Unit = {
    if (li != null) { li.unpersist(true); ord.unpersist(true) }
    li = SynthData.lineitem(spark, Sf, seed * 100).cache()
    ord = SynthData.orders(spark, Sf, seed * 100 + 50).cache()
    liRows = li.count()
    ord.count()
    expectedDigest = 0L
  }

  /** The reference answer: the same query through Spark's own join. */
  private def reference(): Unit = {
    HHJStrategy.uninstall(spark)
    val (row, t) = Metrics.timed(query().collect().head)
    builtinS = t
    require(row.getLong(0) == liRows, s"built-in join returned ${row.getLong(0)} rows, lineitem has $liRows")
    expectedDigest = row.getLong(1)
  }

  /** Spark's own join on the same query, warm: the median of five runs. */
  override def notes(): Seq[String] = {
    if (expectedDigest == 0L) reference()
    val builtin = Metrics.median((1 to 5).map { _ => reference(); builtinS })
    Seq(f"spark-sf025: lineitem $liRows rows, $ShufflePartitions shuffle partitions, built-in join $builtin%.3f s")
  }

  private def leftoverSpillDirs(): Int =
    Option(tmpDir.list()).map(_.count(_.startsWith("hhj-exec-spill"))).getOrElse(0)

  def op(traced: Boolean, name: String): Op = {
    if (expectedDigest == 0L) { listener.current = "setup.reference"; reference() }
    listener.current = name
    val cfg =
      if (traced) Cfg.copy(insertion = Layers.insertion(Cfg.insertion), victim = Layers.victim(Cfg.victim))
      else Cfg
    HHJStrategy.install(spark, cfg)
    Layers.reset()
    listener.reset()
    val group = s"perfbench-$name"
    spark.sparkContext.setJobGroup(group, "perfbench join")
    val df      = query()
    val attempt = scala.util.Try(Metrics.measured(df.collect().head))
    spark.sparkContext.clearJobGroup()
    val left = leftoverSpillDirs()
    attempt match {
      case scala.util.Failure(e) => Op(0, 0, failure = Some(e.toString))
      case scala.util.Success((row, wall, cpu)) =>
        val hasOperator = df.queryExecution.executedPlan.collectFirst { case d: DynamicHHJExec => d }.isDefined
        val problems = Seq(
          !hasOperator -> "executed plan holds no DynamicHHJExec",
          (row.getLong(0) != liRows) -> s"row count ${row.getLong(0)} != lineitem rows $liRows",
          (row.getLong(1) != expectedDigest) -> s"digest ${row.getLong(1)} != built-in join's $expectedDigest",
        ).collect { case (true, m) => m }
        val layers =
          if (!traced) Map.empty[String, Double]
          else {
            listener.awaitJobs(spark.sparkContext.statusTracker.getJobIdsForGroup(group).toSeq)
            Layers.policyTotals() ++ listener.metrics() + ("trace.join_s" -> wall)
          }
        Op(
          wall,
          cpu,
          failure = if (left > 0) Some(s"$left spill directories left behind") else None,
          wrong = if (problems.isEmpty) None else Some(problems.mkString("; ")),
          layers = layers,
        )
    }
  }

  override def close(): Unit = if (spark != null) spark.stop()
}
