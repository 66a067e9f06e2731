//go:build !race

package plancache

// raceEnabled reports whether the race detector is compiled in; the
// zero-allocation assertions are skipped under -race because the detector
// makes sync.Pool drop entries at random.
const raceEnabled = false
