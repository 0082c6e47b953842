//go:build race

package server_test

// raceEnabled reports whether the race detector is compiled in. The
// allocation bound skips under it: race instrumentation makes sync.Pool drop
// puts at random, so testing.AllocsPerRun measures the instrumentation, not
// the handler. scripts/check_allocs.sh runs without -race.
const raceEnabled = true
