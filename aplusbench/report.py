#!/usr/bin/env python3
"""Report traced runs against untraced ones.

    python3 aplusbench/report.py [workload]

For every (workload, seed) with both an untraced and a traced result under
aplusbench/out/, prints the end-to-end metrics of both runs and the tracing
overhead (traced minus untraced), then the traced run's per-layer metrics
and the self time of its spans, summed by span name (a span's duration
minus the part its child spans cover).
"""
import json
import re
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"


def self_times(spans_file):
    spans = [json.loads(l) for l in spans_file.read_text().splitlines()]
    child = defaultdict(int)
    for s in spans:
        child[s["parent"]] += s["end_ns"] - s["start_ns"]
    by_name = defaultdict(lambda: [0, 0])
    for s in spans:
        # Group per-query and per-config spans by their layer name.
        name = re.sub(r" .*", "", s["name"])
        by_name[name][0] += s["end_ns"] - s["start_ns"] - child[s["id"]]
        by_name[name][1] += 1
    return sorted(by_name.items(), key=lambda kv: -kv[1][0])


def main():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    only = sys.argv[1] if len(sys.argv) > 1 else None
    for traced in sorted(OUT.glob("*-trace1.result.json")):
        t = json.loads(traced.read_text())
        if only and t["workload"] != only:
            continue
        plain = OUT / traced.name.replace("-trace1.", "-trace0.")
        print(f"== {t['workload']} seed {t['seed']}: correct={t['correct']} "
              f"attempted={t['attempted']} failed={t['failed']} spans={t['spans']}")
        if plain.exists():
            u = json.loads(plain.read_text())
            print(f"   {'end-to-end metric':<22}{'untraced':>14}{'traced':>14}{'overhead':>14}")
            for m in spec["end_to_end"]:
                a, b = u["metrics"][m["name"]]["value"], t["metrics"][m["name"]]["value"]
                print(f"   {m['name']:<22}{a:>14.4g}{b:>14.4g}{b - a:>+14.4g}  {m['unit']} ({(b - a) / a:+.1%})")
        else:
            print(f"   no untraced run of this seed ({plain.name}); overhead not computed")
        for m in spec["per_layer"]:
            got = t["metrics"].get(m["name"])
            if got is not None:
                print(f"   {m['name']:<34}{got['value']:>16.6g} {got['unit']}")
        spans = OUT / traced.name.replace(".result.json", ".spans.jsonl")
        if spans.exists():
            print("   self time by span:")
            for name, (ns, n) in self_times(spans)[:12]:
                print(f"     {name:<16}{ns / 1e9:>10.3f} s  over {n} spans")


if __name__ == "__main__":
    main()
