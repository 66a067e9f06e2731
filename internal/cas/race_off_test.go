//go:build !race

package cas

// raceEnabled reports whether the race detector is compiled in; the
// zero-allocation assertions are skipped under -race because instrumentation
// allocates.
const raceEnabled = false
