#!/usr/bin/env python3
"""Pipeline benchmark of the HYDRA reproduction.

Builds the repository's main project and the benchmark's own code from source
(sbt, in this directory), then runs one workload in a single JVM:

    python3 perfbench/run.py --workload job --seed 1 --seconds 1 --trace 0

Run it from the root of a checkout. Build outputs, Spark scratch space,
per-pass files and span dumps go to .bench_build/ in the checkout. The last
line of standard output is the result as one JSON object. Options
--wl-seed and --db-seed replace the workload's and the client database's
default seeds (WLs 7, JOB 17; client DB 42 for TPC-DS-lite, 43 for
JOB-lite).
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".bench_build"
MAIN = "repro.perfbench.PipelineBench"
WORKLOADS = ("wls-x100", "job")
# Sources whose change requires a rebuild.
BUILD_INPUTS = ("build.sbt", "project", "src/main", "jobs",
                "perfbench/build.sbt", "perfbench/project", "perfbench/src")
RUN_TIMEOUT_S = 170
HEAP = "4g"
# What Spark's own launcher passes to a Java 17 driver.
JAVA_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources_digest():
    h = hashlib.sha256()
    for rel in BUILD_INPUTS:
        base = ROOT / rel
        paths = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for p in paths:
            if "target" in p.relative_to(ROOT).parts:
                continue
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def classpath():
    """Builds if any source changed since the last build; returns the classpath."""
    stamp, cp_file = WORK / "build.stamp", WORK / "classpath.txt"
    digest = sources_digest()
    if stamp.exists() and cp_file.exists() and stamp.read_text() == digest:
        return cp_file.read_text().strip()
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt is not on PATH")
    # sbt's per-user state (global base, JVM perf data) goes to the checkout;
    # the launcher and the dependency cache are only read.
    env = dict(os.environ)
    env["SBT_OPTS"] = " ".join([env.get("SBT_OPTS", ""), "-XX:-UsePerfData",
                                f"-Dsbt.global.base={WORK / 'sbt-global'}"])
    proc = subprocess.run(
        [sbt, "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        cwd=BENCH, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=850)
    # sbt prints the classpath as the one line without a log-level tag.
    lines = [l for l in proc.stdout.splitlines() if l and not l.startswith("[")]
    sys.stderr.writelines(l + "\n" for l in proc.stdout.splitlines() if l.startswith("["))
    if proc.returncode != 0 or not lines:
        fail(f"build failed (sbt exit {proc.returncode})")
    WORK.mkdir(exist_ok=True)
    cp_file.write_text(lines[-1])
    stamp.write_text(digest)
    return lines[-1]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--wl-seed", type=int)
    ap.add_argument("--db-seed", type=int)
    a = ap.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no repository sources next to {BENCH.name}/; run from a full checkout")
    cp = classpath()
    threads = len(os.sched_getaffinity(0))
    java = pathlib.Path(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    tmp = WORK / "jvm-tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [str(java), f"-Xmx{HEAP}", "-XX:-UsePerfData", *JAVA_OPTS, f"-Djava.io.tmpdir={tmp}",
           "-cp", cp, MAIN,
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--threads", str(threads), "--work-dir", str(WORK),
           "--git-sha", git_sha()]
    if a.wl_seed is not None:
        cmd += ["--wl-seed", str(a.wl_seed)]
    if a.db_seed is not None:
        cmd += ["--db-seed", str(a.db_seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark JVM exited with {proc.returncode}")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
