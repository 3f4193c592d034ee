#!/usr/bin/env python3
"""Summarise benchmark result files over runs, and compare code versions.

    python3 benchmark/summarize.py benchmark/results/*.json

Each run of the benchmark writes one result file (host block, gates,
metrics) to benchmark/results/. This script groups them by workload, traced
flag and source fingerprint (the code that ran), and prints per metric the
median, the first and third quartile and the spread, (q3 - q1) / median, as
`statistics.quantiles(values, n=4)` gives them. End-to-end metrics are shown
with their bound from BENCHMARK.json and flagged when the spread exceeds a
third of it.

When one workload has results from two or more sources, each later source is
compared with the first: a metric whose median is worse than the first
source's by more than its bound is flagged as a regression.

Refuses, with exit status 1, to summarise together results whose host blocks
differ (cores, CPU, SIMD level, pool width, event-loop threads, HPNN_*
environment), and fails when runs of one seed on one source trained to
different weights.
"""

import collections
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(paths):
    runs = []
    for p in paths:
        p = pathlib.Path(p)
        if p.name.endswith(".trace.json"):
            continue
        with open(p) as f:
            r = json.load(f)
        r["_path"] = str(p)
        runs.append(r)
    return runs


def bounds():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}, better


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(base, new, better):
    """Share by which `new` is worse than `base` (negative when better)."""
    if base == 0:
        return 0.0
    return (new - base) / base if better == "lower" else (base - new) / base


def main(argv):
    if not argv:
        print(__doc__.strip())
        return 2
    runs = load(argv)
    if not runs:
        print("no result files")
        return 2
    bound, better = bounds()
    status = 0

    by_workload = collections.defaultdict(list)
    for r in runs:
        by_workload[r["workload"]].append(r)

    for workload, rs in sorted(by_workload.items()):
        keys = {r["host"]["key"] for r in rs}
        if len(keys) > 1:
            print(f"{workload}: REFUSED, host blocks differ:")
            for k in sorted(keys):
                print(f"  {k}")
            status = 1
            continue
        print(f"== {workload}   host: {keys.pop()}")

        digests = collections.defaultdict(set)
        for r in rs:
            if r.get("weights_sha256"):
                digests[(r["host"]["source_sha256"], r["seed"])].add(r["weights_sha256"])
        for (source, seed), ds in sorted(digests.items()):
            if len(ds) > 1:
                print(f"  FAIL: seed {seed} on source {source[:12]} trained to {len(ds)} different weight digests")
                status = 1

        for trace in (False, True):
            groups = collections.OrderedDict()
            for r in sorted((r for r in rs if r["trace"] == trace), key=lambda r: r["_path"]):
                groups.setdefault(r["host"]["source_sha256"], []).append(r)
            base = None
            for source, group in groups.items():
                commits = sorted({r["host"]["commit"] for r in group})
                bad = [r["_path"] for r in group if not r["correct"]]
                print(
                    f"  trace={int(trace)} source {source[:12]} commit {','.join(c[:12] for c in commits)} "
                    f"runs {len(group)} seeds {sorted({r['seed'] for r in group})}"
                )
                if bad:
                    print(f"    FAIL: {len(bad)} runs failed a correctness gate: {bad}")
                    status = 1
                names = list(group[0]["metrics"])
                medians = {}
                print(f"    {'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
                for name in names:
                    vals = [r["metrics"][name]["value"] for r in group if name in r["metrics"]]
                    med, q1, q3, sp = spread(vals)
                    medians[name] = med
                    b = bound.get(name)
                    flag = ""
                    if b is not None and name != "setup_s" and sp > b / 3:
                        flag = "  unsteady (spread > bound/3)"
                    line = f"    {name:<36} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {sp:>8.4f}"
                    line += f" {b:>6}" if b is not None else f" {'-':>6}"
                    if base is not None and name in base:
                        w = worse_by(base[name], med, better.get(name, "lower"))
                        line += f"  vs first source: {w:+.4f} worse"
                        if b is not None and w > b:
                            line += "  REGRESSION"
                    print(line + flag)
                if base is None:
                    base = medians
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
