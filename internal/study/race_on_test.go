//go:build race

package study

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
