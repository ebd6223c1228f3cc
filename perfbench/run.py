#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run from the repository root. The first run builds the benchmark (the
program's sources plus perfbench/src) with sbt in offline mode and writes the
runtime classpath to perfbench/target/classpath.txt; later runs start the JVM
directly. Output of the run goes to perfbench/out/. The last line of standard
output is the JSON result; see perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSPATH = os.path.join(TARGET, "classpath.txt")
OUT = os.path.join(HERE, "out")
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala", "repro")

WORKLOADS = ["cold-query", "exchange-fleet", "exchange-bulk", "verified-query"]
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170

# Spark 4 on JDK 17 needs these packages opened to unnamed modules.
OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
         "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
         "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
         "sun.util.calendar"]
HEAP = "3g"


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def newest_source_mtime():
    newest = max(os.path.getmtime(os.path.join(HERE, f))
                 for f in ("build.sbt", os.path.join("project", "build.properties")))
    for top in (PROGRAM_SRC, os.path.join(HERE, "src")):
        for d, _, files in os.walk(top):
            for f in files:
                newest = max(newest, os.path.getmtime(os.path.join(d, f)))
    return newest


def spark_home():
    """The Spark distribution whose jars the build compiles against."""
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution found: set SPARK_HOME or put spark-submit on the PATH")
    return home


def build():
    if os.path.exists(CLASSPATH) and os.path.getmtime(CLASSPATH) >= newest_source_mtime():
        return
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, COURSIER_MODE="offline", SPARK_HOME=spark_home())
    # sbt's global state (server socket, compiler bridge) stays in target/;
    # dependencies come from the local coursier cache, read-only.
    env["SBT_OPTS"] = " ".join([env.get("SBT_OPTS", ""), "-Dsbt.offline=true", "-XX:-UsePerfData",
                                f"-Dsbt.global.base={os.path.join(TARGET, 'sbt-global')}",
                                f"-Djava.io.tmpdir={tmp}", f"-Djna.tmpdir={tmp}"]).strip()
    print("perfbench: building with sbt (offline)", file=sys.stderr)
    t0 = time.time()
    try:
        r = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "writeClasspath"],
                           cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(CLASSPATH):
        fail(f"build failed (exit {r.returncode})")
    print(f"perfbench: built in {time.time() - t0:.1f} s", file=sys.stderr)


def check_result(line, trace):
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected keys {sorted(res)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(res["metrics"]) != want:
        raise ValueError(f"metrics {sorted(set(res['metrics']) ^ want)} differ from BENCHMARK.json")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()

    if not os.path.isdir(PROGRAM_SRC):
        fail("the program's sources (src/main/scala/repro) are not in this checkout", 3)
    build()
    with open(CLASSPATH) as f:
        cp = f.read().strip()

    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+AlwaysPreTouch", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
            "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties")]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", cp, "repro.perfbench.Main",
              "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
              "--trace", str(a.trace), "--out", OUT])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if proc.returncode != 0:
        fail(f"benchmark JVM exited with {proc.returncode}")
    try:
        res = check_result(lines[-1], a.trace == 1)
    except ValueError as e:
        fail(f"bad result line: {e}")
    print(json.dumps(res))


if __name__ == "__main__":
    main()
