#!/usr/bin/env bash
# check_scaling.sh — fail when worker-pinned Readers stop scaling.
#
# Runs ThroughputSweep (via TestReaderScalingGate) at 1 worker and at NumCPU
# workers, one Reader per worker, in two cells: readers sharing an
# unreplicated mbt classifier (lookups write nothing to the snapshot, so it
# must scale), and one replica per worker on dcfl behind a 16384-entry cache
# over a Zipf(1.1) trace (the private caches are what the fleet is for). It
# fails when either cell's NumCPU-worker speedup over its own 1-worker row
# falls below the floor. The gate is opt-in behind SCALING_GATE=1 because it
# is a timing assertion; SCALING_GATE_FLOOR overrides the default 1.2x floor
# for noisy or small runners. Single-CPU machines skip (there is no scaling
# to measure).
set -euo pipefail
cd "$(dirname "$0")/.."

SCALING_GATE=1 go test -count=1 -v -run TestReaderScalingGate .
