package perfbench

/** The per-layer metrics of a traced run. Every workload reports all of
  * them; a layer the workload cannot reach from outside reads 0 (the core
  * layers' spill, output and round counters inside a Spark task, the
  * Spark stages of a core join).
  */
object LayerSet {
  val metrics: Seq[(String, String)] = Seq(
    "insertion.calls"                -> "count",
    "insertion.s"                    -> "s",
    "insertion.frames_searched"      -> "count",
    "frames.round1_fullness"         -> "ratio",
    "frames.round1_resident_mb"      -> "MB",
    "victim.calls"                   -> "count",
    "victim.s"                       -> "s",
    "victim.round1_spill_mb"         -> "MB",
    "spill.append_calls"             -> "count",
    "spill.append_s"                 -> "s",
    "spill.written_mb"               -> "MB",
    "spill.read_s"                   -> "s",
    "spill.read_mb"                  -> "MB",
    "spill.files"                    -> "count",
    "spill.seq_writes"               -> "count",
    "spill.rand_writes"              -> "count",
    "spill.manage_s"                 -> "s",
    "hhj.self_s"                     -> "s",
    "hhj.rounds"                     -> "count",
    "hhj.in_memory_rounds"           -> "count",
    "hhj.bnlj_rounds"                -> "count",
    "hhj.role_reversals"             -> "count",
    "hhj.max_depth"                  -> "count",
    "hhj.records_processed"          -> "count",
    "output.calls"                   -> "count",
    "output.s"                       -> "s",
    "spark.join_stage_s"             -> "s",
    "spark.exchange_stage_s"         -> "s",
    "spark.shuffle_write_mb"         -> "MB",
    "spark.gc_s"                     -> "s",
    "spark.join_task_max_over_median" -> "ratio",
    "trace.join_s"                   -> "s",
  )

  /** Per-join means over the traced joins; counts repeat exactly from join
    * to join, and means keep `hhj.self_s` plus the timed layers equal to
    * `trace.join_s`.
    */
  def report(ops: Seq[Op]): Seq[(String, Double, String)] =
    metrics.map { case (name, unit) => (name, Metrics.mean(ops.map(_.layers.getOrElse(name, 0.0))), unit) }
}
