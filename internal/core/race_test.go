//go:build race

package core

// raceEnabled reports whether the test binary runs under the race
// detector, whose scheduling overhead skews timing-based assertions.
const raceEnabled = true
