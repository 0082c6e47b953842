//go:build race

package sdnpc

// raceEnabled reports whether the race detector is compiled in. Allocation
// counts skip under it: race instrumentation makes sync.Pool drop puts at
// random, so testing.AllocsPerRun measures the instrumentation, not the
// serving path. scripts/check_allocs.sh runs without -race.
const raceEnabled = true
