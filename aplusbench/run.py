#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 aplusbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the harness and the program from source
on first use (sbt, offline), then runs one JVM. The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}, where
metrics are BENCHMARK.json's end_to_end list (--trace 0) or its per_layer
list (--trace 1). Extra options: --scale (shrink the inputs, for the smoke
test) and --record (store this seed's fingerprint).
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CLASSPATH = BENCH / "target" / "classpath.txt"
FINGERPRINTS = BENCH / "fingerprints.json"
# Workloads the harness implements. fraud_secondary is kept runnable by name
# but is not in BENCHMARK.json: three workloads do not fit the run budget.
WORKLOADS = ("sq_reconfig", "fraud_secondary", "ingest_rw")
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 700
JVM_OPTS = [
    "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC",
    # Spark needs these on Java 17; spark-submit would add them.
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
]
# ingest_rw walks a ~1 GB heap of small objects: back it with transparent huge
# pages, all touched at JVM start, so page faults and TLB misses do not land in
# the timed inserts and reads (they made its runs up to ~20 % slower). Its hot
# loops are compiled in the foreground (-Xbatch), at the same point of every
# run: with background compilation the code differed from JVM to JVM, and the
# quartile spread of inserts/s over runs of one seed was 0.26 against 0.10.
WORKLOAD_JVM_OPTS = {"ingest_rw": ["-XX:+UseTransparentHugePages", "-XX:+AlwaysPreTouch", "-Xbatch"]}


def fail(msg, code=2):
    print(f"aplusbench: {msg}", file=sys.stderr)
    sys.exit(code)


def newest_source_mtime():
    roots = [ROOT / "src" / "main", ROOT / "jobs", BENCH / "src", ROOT / "build.sbt",
             BENCH / "build.sbt", ROOT / "project", BENCH / "project"]
    newest = 0.0
    for r in roots:
        if r.is_file():
            newest = max(newest, r.stat().st_mtime)
        elif r.is_dir():
            for p in r.rglob("*"):
                if p.is_file() and "target" not in p.relative_to(r).parts:
                    newest = max(newest, p.stat().st_mtime)
    return newest


def build():
    """Compile program and harness unless the classpath is newer than every source."""
    if CLASSPATH.exists() and CLASSPATH.stat().st_mtime >= newest_source_mtime():
        return
    print("aplusbench: building (sbt writeClasspath)", file=sys.stderr)
    try:
        proc = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
                               "writeClasspath"], cwd=BENCH, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if proc.returncode != 0 or not CLASSPATH.exists():
        fail("build failed", 3)


def expected_fingerprint(workload, seed):
    if not FINGERPRINTS.exists():
        return None
    fp = json.loads(FINGERPRINTS.read_text()).get(workload, {}).get(str(seed))
    if fp is None:
        return None
    rows = ",".join(f"{k}={v}" for k, v in fp["rows"].items())
    return f"{fp['vertices']} {fp['edges']} {rows}"


def record_fingerprint(workload, seed, fp):
    data = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    data.setdefault(workload, {})[str(seed)] = fp
    for w in data:
        data[w] = dict(sorted(data[w].items(), key=lambda kv: int(kv[0])))
    FINGERPRINTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--scale", type=float)
    ap.add_argument("--record", action="store_true")
    a = ap.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.exists():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_file.read_text())
    if a.workload not in WORKLOADS:
        fail(f"unknown workload {a.workload!r}; known: {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "main" / "scala").is_dir() or not (ROOT / "build.sbt").is_file():
        fail("the program's sources (src/main/scala, build.sbt) are missing; nothing to benchmark")

    build()
    OUT.mkdir(exist_ok=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    cmd = ["java", *JVM_OPTS, *WORKLOAD_JVM_OPTS.get(a.workload, []), f"-Djava.io.tmpdir={OUT / 'tmp'}",
           "-cp", CLASSPATH.read_text().strip(), "aplusbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--out", str(OUT)]
    if a.scale is not None:
        cmd += ["--scale", str(a.scale)]
    elif (fp := expected_fingerprint(a.workload, a.seed)) is not None and not a.record:
        cmd += ["--expect", fp]

    t0 = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_LIMIT_S} s", 3)
    lines = proc.stdout.splitlines()
    result_lines = [l for l in lines if l.startswith("RESULT ")]
    if proc.returncode != 0 or not result_lines:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark JVM failed (exit {proc.returncode})", 4)
    for l in lines:
        if not l.startswith("RESULT "):
            print(l)
    res = json.loads(result_lines[-1][len("RESULT "):])
    print(f"wall {time.time() - t0:.1f} s; events, spans and result in {OUT.relative_to(ROOT)}/")

    if a.record:
        record_fingerprint(a.workload, a.seed, res["fingerprint"])

    wanted = spec["end_to_end"] if a.trace == "0" else spec["per_layer"]
    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None:
            if a.trace == "0":
                fail(f"end-to-end metric {m['name']} was not measured", 4)
            # A layer this workload does not exercise did no work.
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, BENCHMARK.json says {m['unit']}", 4)
        metrics[m["name"]] = got
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
