#!/usr/bin/env python3
"""Wall-clock benchmark of the Dynamic Hybrid Hash Join operator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload core-fit --seed 1 --seconds 10 --trace 0

Builds the benchmark (the operator's main sources plus perfbench/src) with
sbt, offline, at most once per invocation and only when a source changed;
then runs one workload in one JVM with a pinned heap and collector, and
passes its last line (one JSON object) through on standard output.
Everything it writes goes under .bench_build/ in the checkout.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OPERATOR_SRC = os.path.join(ROOT, "src", "main", "scala")
WORKLOADS = ["core-fit", "core-spill-ngns", "core-skew-gs", "spark-sf025"]

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HEAP = "3g"

# Spark on JDK 17 needs these opened to the unnamed module.
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_hash():
    """Hash of every file the build reads, so a stale build is never reused."""
    h = hashlib.sha256()
    roots = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties"),
             os.path.join(HERE, "src"), OPERATOR_SRC]
    for top in roots:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def spark_home():
    """SPARK_HOME, or the first Spark distribution (a bin/spark-submit next
    to a jars/ directory) on PATH."""
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        submit = os.path.join(d, "spark-submit")
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
        if os.path.isfile(submit) and os.path.isdir(os.path.join(home, "jars")):
            return home
    fail("set SPARK_HOME or put a Spark distribution's bin/ on PATH")


def sbt_env():
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    env["SPARK_HOME"] = spark_home()
    opts = env.get("SBT_OPTS", "").split()
    keep = [o for o in opts if not o.startswith(("-Xmx", "-Dsbt.global.base", "-Dsbt.ivy.home"))]
    if not any(o.startswith("-Dsbt.repository.config") for o in keep):
        repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
        if os.path.isfile(repos):
            keep += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    keep += ["-Dsbt.offline=true", "-Xmx2g", "-XX:-UsePerfData",
             "-Dsbt.global.base=" + os.path.join(BUILD, "sbt-global"),
             "-Dsbt.ivy.home=" + os.path.join(BUILD, "ivy2"),
             "-Djava.io.tmpdir=" + tmp, "-Djna.tmpdir=" + tmp]
    env["SBT_OPTS"] = " ".join(keep)
    # Also reaches the JVMs the sbt script starts for itself.
    env["JAVA_TOOL_OPTIONS"] = (env.get("JAVA_TOOL_OPTIONS", "") + " -XX:-UsePerfData").strip()
    return env


def build():
    """Returns the runtime classpath, compiling first if a source changed."""
    if not os.path.isdir(OPERATOR_SRC):
        fail(f"the operator's sources ({os.path.relpath(OPERATOR_SRC, ROOT)}) are missing; "
             "run from the root of a full checkout")
    digest = source_hash()
    stamp = os.path.join(BUILD, "classpath.txt")
    if os.path.isfile(stamp):
        with open(stamp) as f:
            lines = f.read().splitlines()
        if len(lines) == 2 and lines[0] == digest:
            return lines[1]
    os.makedirs(BUILD, exist_ok=True)
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt is not on PATH")
    try:
        res = subprocess.run([sbt, "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
                             cwd=HERE, env=sbt_env(), stdin=subprocess.DEVNULL,
                             capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if res.returncode != 0:
        sys.stderr.write("\n".join(l for l in res.stdout.splitlines() if l.startswith("[error]"))[-8000:] + "\n")
        fail(f"build failed (sbt exit {res.returncode})")
    cp = [l for l in res.stdout.splitlines() if "perfbench-target" in l and not l.startswith("[")]
    if not cp:
        fail("build printed no classpath")
    with open(stamp, "w") as f:
        f.write(f"{digest}\n{cp[-1].strip()}\n")
    return cp[-1].strip()


def java_cmd(cp, args, work_dir):
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cpus = len(os.sched_getaffinity(0))
    return [
        java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+AlwaysPreTouch", "-XX:+UseTransparentHugePages",
        "-XX:-UsePerfData",
        "-XX:+UseParallelGC",
        f"-XX:ParallelGCThreads={min(4, cpus)}", f"-XX:ActiveProcessorCount={min(4, cpus)}",
        "-Djava.io.tmpdir=" + os.path.join(work_dir, "tmp"),
        "-Dspark.ui.enabled=false",
        *[f"--add-opens={p}=ALL-UNNAMED" for p in ADD_OPENS],
        "-cp", cp, "perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--notes", str(args.notes), "--work-dir", work_dir,
        "--trace-out", os.path.join(BUILD, "traces", f"{args.workload}-seed{args.seed}.json"),
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--notes", type=int, choices=[0, 1], default=0,
                    help="also print reference figures (model CPU seconds, Spark's own join)")
    args = ap.parse_args()

    cp = build()
    work_dir = os.path.join(BUILD, "run", str(os.getpid()))
    os.makedirs(os.path.join(work_dir, "tmp"), exist_ok=True)
    proc = subprocess.Popen(java_cmd(cp, args, work_dir), cwd=work_dir, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark JVM exited with {proc.returncode}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
