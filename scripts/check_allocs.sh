#!/usr/bin/env bash
# check_allocs.sh — the zero-allocation gate of the flat-memory hot path.
#
# Runs the testing.AllocsPerRun-based tests asserting 0 allocs/op for Lookup,
# LookupBatchInto and the multi-action LookupAllInto on every selectable
# engine of both tiers, cached and uncached, plus the cross-product
# combination mode. A single stray
# allocation on any serving path fails the gate, so the arena layout's
# headline contract cannot erode silently. It also runs
# TestPacketTierUpdateAllocs, which bounds the objects and the bytes one rule
# update allocates under a whole-packet engine (the snapshot clone must not
# grow a second tier back, nor the rule table a third copy), and
# TestFieldTierUpdateAllocs, which bounds them under a field engine (the
# clone must share the tries, the Rule Filter and the label bank, not copy
# them). Above the core, TestLookupBatchInto asserts the facade's
# Classifier.LookupBatchInto allocates nothing with a reused dst, and
# TestClassifyBatchAllocs bounds a 64-header classify-batch request through
# the wire handler's ServeHTTP at 16 allocations (the hand-written codec
# allocates per request, not per header). These are the same tests a
# developer runs locally with:
#
#	go test ./internal/core/ -run 'ZeroAllocs|UpdateAllocs'
#	go test . ./internal/server/ -run 'TestLookupBatchInto|TestClassifyBatchAllocs'
#
# -count=1 defeats the test cache: the gate must re-measure on the current
# build, not replay a cached verdict.
set -euo pipefail
cd "$(dirname "$0")/.."

go test -count=1 -run 'TestLookupZeroAllocs|TestLookupBatchZeroAllocs|TestLookupZeroAllocsCrossProduct|TestLookupAllZeroAllocs|TestPacketTierUpdateAllocs|TestFieldTierUpdateAllocs|TestLookupBatchInto|TestClassifyBatchAllocs' -v ./internal/core/ . ./internal/server/ | grep -E '^(=== RUN|--- (PASS|FAIL|SKIP)|PASS|FAIL|ok)' || {
  echo "check_allocs: the allocation gate failed" >&2
  exit 1
}
