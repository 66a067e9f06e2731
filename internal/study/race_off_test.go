//go:build !race

package study

// raceEnabled reports whether the race detector is compiled in; the
// allocation floors are skipped under -race, which drops pooled objects.
const raceEnabled = false
