#!/usr/bin/env python3
"""Benchmark regression gate for the CI bench job.

Reads two `go test -bench` output files (base and head), averages the ns/op
of every benchmark that appears in both, and fails when the geometric-mean
slowdown exceeds the given percentage or any single benchmark slows by more
than twice that. Benchmarks present on one side only cannot be compared; they
are listed, so a deleted or renamed benchmark does not shrink the gate
silently. benchstat prints the human-readable delta next to this gate; this
script exists so the pass/fail decision is a stable, dependency-free
computation rather than a parse of benchstat's formatting.

Usage: benchgate.py BASE_FILE HEAD_FILE MAX_REGRESSION_PERCENT
"""

import math
import re
import sys
from collections import defaultdict

# "BenchmarkThroughput/mbt/workers_4-8   295   128144 ns/op   7804 pkts/s"
LINE = re.compile(r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op")


def read_bench(path):
    samples = defaultdict(list)
    with open(path) as f:
        for line in f:
            m = LINE.match(line)
            if m:
                samples[m.group(1)].append(float(m.group(2)))
    return {name: sum(vals) / len(vals) for name, vals in samples.items()}


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    base = read_bench(sys.argv[1])
    head = read_bench(sys.argv[2])
    limit = float(sys.argv[3]) / 100.0

    for side, names in (("base", set(base) - set(head)), ("head", set(head) - set(base))):
        for name in sorted(names):
            print(f"benchgate: only in {side}: {name}")

    common = sorted(set(base) & set(head))
    if not common:
        print("benchgate: no common benchmarks between base and head; nothing to gate")
        return

    log_sum = 0.0
    worst = (None, 0.0)
    over_ceiling = []
    for name in common:
        ratio = head[name] / base[name]
        log_sum += math.log(ratio)
        if ratio > worst[1]:
            worst = (name, ratio)
        if ratio > 1.0 + 2 * limit:
            over_ceiling.append(name)
        print(f"{name}: {base[name]:.0f} -> {head[name]:.0f} ns/op ({(ratio - 1) * 100:+.1f}%)")

    geomean = math.exp(log_sum / len(common))
    print(f"\nbenchgate: geomean ns/op ratio over {len(common)} benchmarks: "
          f"{geomean:.3f} ({(geomean - 1) * 100:+.1f}%), worst {worst[0]} {(worst[1] - 1) * 100:+.1f}%")
    if geomean > 1.0 + limit:
        sys.exit(f"benchgate: FAIL — geomean slowdown {(geomean - 1) * 100:.1f}% "
                 f"exceeds the {limit * 100:.0f}% budget")
    if over_ceiling:
        sys.exit(f"benchgate: FAIL — slower by more than the {2 * limit * 100:.0f}% "
                 f"per-benchmark ceiling: {', '.join(over_ceiling)}")
    print("benchgate: OK")


if __name__ == "__main__":
    main()
