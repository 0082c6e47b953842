#!/usr/bin/env bash
# check_scaling.sh — fail when worker-pinned Readers stop scaling.
#
# Runs ThroughputSweep (via TestReaderScalingGate) at 1 worker and at NumCPU
# workers, one Reader per worker, in two cells: `shared`, readers sharing an
# uncached mbt classifier (lookups write nothing to the snapshot, so it must
# scale), and `cached`, dcfl behind a 16384-entry cache budget over a
# Zipf(1.1) trace (each Reader fills its own lane's private share of the
# budget, which is what the serving lanes are for). It fails when either cell's NumCPU-worker speedup over its own 1-worker row
# falls below the floor. The gate is opt-in behind SCALING_GATE=1 because it
# is a timing assertion; SCALING_GATE_FLOOR overrides the default 1.2x floor
# for noisy or small runners. Single-CPU machines skip (there is no scaling
# to measure).
set -euo pipefail
cd "$(dirname "$0")/.."

SCALING_GATE=1 go test -count=1 -v -run TestReaderScalingGate .
