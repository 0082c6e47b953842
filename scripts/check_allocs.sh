#!/usr/bin/env bash
# check_allocs.sh — the zero-allocation gate of the flat-memory hot path.
#
# Runs the testing.AllocsPerRun-based tests asserting 0 allocs/op for Lookup,
# LookupBatchInto and the multi-action LookupAllInto on every selectable
# engine of both tiers, cached and uncached, in the exact (cross-product)
# combination mode every classifier serves with. The serving path returns
# the verdict and the access counters only; the paper's modelled cycles are
# computed by the experiment harness, off this path. A single stray
# allocation on any serving path fails the gate, so the flat layout's
# headline contract cannot erode silently. It also runs
# TestPacketTierUpdateAllocs, which bounds the objects and the bytes one rule
# update allocates under a whole-packet engine at acl-1k and, for hypercuts,
# acl-5k (the snapshot clone must not grow a second tier back, and the rule
# table and the structure must copy the chunks a publish writes, not
# themselves), TestFieldTierUpdateAllocs, which bounds them under a field
# engine (the clone must share the tries, the Rule Filter, the rule table and
# the label bank, not copy them), TestNewFieldTierAllocs, which bounds what
# building an empty field-tier classifier allocates on every IP engine (what
# the tier serves, no simulated memory blocks), and, below the engine
# adapter, the TestDeltaAllocs of hypercuts and of dcfl, which bound one
# delta on a fresh clone of the tree or the tables (the id map and the
# chunks it writes, not the structure).
# Above the core,
# TestLookupBatchInto asserts the facade's
# Classifier.LookupBatchInto allocates nothing with a reused dst, and
# TestClassifyBatchAllocs bounds a 64-header classify-batch request through
# the wire handler's ServeHTTP at 16 allocations (the hand-written codec
# allocates per request, not per header). These are the same tests a
# developer runs locally with:
#
#	go test ./internal/core/ -run 'ZeroAllocs|UpdateAllocs|TestNewFieldTierAllocs'
#	go test ./internal/algo/hypercuts/ ./internal/algo/dcfl/ -run TestDeltaAllocs
#	go test . ./internal/server/ -run 'TestLookupBatchInto|TestClassifyBatchAllocs'
#
# -count=1 defeats the test cache: the gate must re-measure on the current
# build, not replay a cached verdict.
set -euo pipefail
cd "$(dirname "$0")/.."

go test -count=1 -run 'TestLookupZeroAllocs|TestLookupBatchZeroAllocs|TestLookupZeroAllocsCrossProduct|TestLookupAllZeroAllocs|TestPacketTierUpdateAllocs|TestFieldTierUpdateAllocs|TestNewFieldTierAllocs|TestDeltaAllocs|TestLookupBatchInto|TestClassifyBatchAllocs' -v ./internal/core/ ./internal/algo/hypercuts/ ./internal/algo/dcfl/ . ./internal/server/ | grep -E '^(=== RUN|--- (PASS|FAIL|SKIP)|PASS|FAIL|ok)' || {
  echo "check_allocs: the allocation gate failed" >&2
  exit 1
}
