//go:build race

package plancache

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
