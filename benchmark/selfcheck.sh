#!/usr/bin/env bash
# Noise self-check: runs two interleaved sets (A, B) of N gated runs per
# workload of the same binary, every run with its own seed, and prints for
# each metric x workload pair the median and quartiles of each set, the
# quartile spread as a share of the median, and the A-vs-B median gap in the
# metric's "worse" direction. Fails if a gap exceeds the metric's bound in
# BENCHMARK.json (the issue's rule), if a spread other than setup_s's does
# (the benchmark driver's rule), or if any run was incorrect; warns when a
# spread is over a third of its bound.
#
#   benchmark/selfcheck.sh [N]        (default 5; NOISE.md was made with 10)
#
# The report goes to standard output as markdown; raw result lines are kept
# in benchmark/out/selfcheck/.
set -euo pipefail

n="${1:-5}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
raw="$here/out/selfcheck"
rm -rf "$raw"
mkdir -p "$raw"
cd "$root"

seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

for i in $(seq 1 "$n"); do
  for w in $workloads; do
    for set in A B; do
      seed=$i
      [ "$set" = B ] && seed=$((100 + i))
      bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 >>"$raw/$set-$w.jsonl"
    done
  done
done

python3 "$here/selfcheck.py" "$root/BENCHMARK.json" "$raw"
