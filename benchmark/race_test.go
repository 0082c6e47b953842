//go:build race

package main

// raceEnabled: under the race detector sync.Pool drops items at random, so
// the zero-allocation serving path allocates and the alloc counts vary.
const raceEnabled = true
