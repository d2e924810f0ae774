package perfbench

import java.io.{File, PrintStream}
import java.nio.charset.StandardCharsets
import java.nio.file.Files

/** Entry point: runs one workload for a fixed time and prints one JSON
  * result line on standard output. Everything else goes to standard error.
  *
  * {{{
  * perfbench.Main --workload <name> [--seed 1] [--seconds 10] [--trace 0|1]
  *                --work-dir <dir> [--trace-out <file>] [--notes 0|1]
  * }}}
  */
object Main {
  val Workloads = Seq("core-fit", "core-spill-ngns", "core-skew-gs", "spark-sf025")

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other                             => usage(s"bad argument ${other.mkString(" ")}")
    }.toMap
    val workload = opts.getOrElse("workload", usage("--workload is required"))
    if (!Workloads.contains(workload)) usage(s"unknown workload $workload")
    val seed    = opts.getOrElse("seed", "1").toLong
    val seconds = opts.getOrElse("seconds", "10").toInt
    val trace   = opts.getOrElse("trace", "0") == "1"
    val notes   = opts.getOrElse("notes", "0") == "1"
    val workDir = new File(opts.getOrElse("work-dir", usage("--work-dir is required")))
    require(workDir.isDirectory || workDir.mkdirs(), s"cannot create $workDir")

    // Only the result line goes to standard output.
    val stdout = System.out
    System.setOut(new PrintStream(System.err, true, StandardCharsets.UTF_8))
    val spans = new Spans
    val w: Workload =
      if (workload == "spark-sf025") new SparkWorkload(workDir, spans)
      else new CoreWorkload(workload, CoreBench.specs(workload), workDir)
    val json = Console.withOut(System.err)(new Harness(w, seed, seconds, trace, notes, spans).result())
    opts.get("trace-out").filter(_ => trace).foreach { path =>
      val f = new File(path)
      Option(f.getParentFile).foreach(_.mkdirs())
      Files.write(f.toPath, spans.json.getBytes(StandardCharsets.UTF_8))
    }
    stdout.println(json)
    stdout.flush()
    sys.exit(0)
  }

  private def usage(msg: String): Nothing = {
    System.err.println(s"perfbench: $msg")
    System.err.println(s"workloads: ${Workloads.mkString(", ")}")
    sys.exit(2)
  }
}
