//go:build race

package cas

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
