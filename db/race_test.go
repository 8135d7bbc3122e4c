//go:build race

package db

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation changes allocation counts.
const raceEnabled = true
