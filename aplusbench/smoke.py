#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 aplusbench/smoke.py

Runs every workload at a tiny scale, untraced and traced, and asserts that
each run passes its correctness gate, prints a well-formed result line, and
emits every BENCHMARK.json metric by name with its unit: every end-to-end
metric from every listed workload, every per-layer metric from at least one.
The kept but unlisted fraud_secondary workload must pass the same checks,
except per-layer coverage. Exits non-zero on the first failure.
"""
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7
TINY = {"sq_reconfig": 0.01, "fraud_secondary": 0.02, "ingest_rw": 0.02}


def run(workload, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--scale", str(TINY[workload])]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stdout}"
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1, last
    full = json.loads((BENCH / "out" / f"{workload}-seed{SEED}-trace{trace}.result.json").read_text())
    return last, full["metrics"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted_per_layer = {}
    listed = [x["name"] for x in spec["workloads"]]
    for w in listed + [w for w in TINY if w not in listed]:
        last, emitted = run(w, 0)
        for m in spec["end_to_end"]:
            got = emitted.get(m["name"])
            assert got is not None, f"{w}: end-to-end metric {m['name']} not emitted"
            assert got["unit"] == m["unit"], f"{w}: {m['name']} unit {got['unit']} != {m['unit']}"
            assert got["value"] > 0, f"{w}: end-to-end metric {m['name']} is {got['value']}"
        assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        last, emitted = run(w, 1)
        assert set(last["metrics"]) == {m["name"] for m in spec["per_layer"]}
        if w in listed:
            for name, got in emitted.items():
                emitted_per_layer.setdefault(name, got["unit"])
        print(f"ok  {w}")
    for m in spec["per_layer"]:
        unit = emitted_per_layer.get(m["name"])
        assert unit is not None, f"per-layer metric {m['name']} is emitted by no workload"
        assert unit == m["unit"], f"{m['name']} unit {unit} != {m['unit']}"
    print(f"ok  all {len(spec['end_to_end'])} end-to-end and {len(spec['per_layer'])} per-layer metrics emitted")


if __name__ == "__main__":
    main()
