package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// minBeyond is how many samples must lie strictly beyond a percentile
// before it is reported: with fewer, one outlier moves the figure.
const minBeyond = 10

// pctl is one percentile read from a sample set.
type pctl struct {
	Value  float64 `json:"value"`
	Beyond int     `json:"beyond"` // samples strictly above Value's rank
	N      int     `json:"n"`
	OK     bool    `json:"ok"` // Beyond >= minBeyond
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted,
// ascending samples. The value sits at rank ceil(q*n); OK reports whether
// at least minBeyond samples rank above it, the rule for a percentile worth
// reporting.
func percentile(sorted []float64, q float64) pctl {
	n := len(sorted)
	if n == 0 {
		return pctl{}
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	beyond := n - rank
	return pctl{Value: sorted[rank-1], Beyond: beyond, N: n, OK: beyond >= minBeyond}
}

// sortedCopy returns the samples in ascending order without touching the
// input.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// p50 is the median of unsorted samples when it is reportable, else 0.
func p50(v []float64) float64 {
	p := percentile(sortedCopy(v), 0.5)
	if !p.OK {
		return 0
	}
	return p.Value
}

// median is the plain middle value (mean of the two middles for even n),
// used for the handful of set-up times a run takes.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// procSample is a snapshot of the process counters a timed window is
// measured by; windows subtract two samples.
type procSample struct {
	wall      time.Time
	cpu       time.Duration // user + system, getrusage(RUSAGE_SELF)
	allocs    uint64        // cumulative heap bytes allocated
	gcCycles  uint64
	gcCPU     float64 // cumulative GC CPU seconds (runtime estimate)
	heapLive  uint64
	rusageErr error
}

var procMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

// sampleProc reads the process counters.
func sampleProc() procSample {
	ms := make([]metrics.Sample, len(procMetrics))
	for i, name := range procMetrics {
		ms[i].Name = name
	}
	metrics.Read(ms)
	var ru syscall.Rusage
	err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return procSample{
		wall:      time.Now(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:    ms[0].Value.Uint64(),
		gcCycles:  ms[1].Value.Uint64(),
		gcCPU:     ms[2].Value.Float64(),
		heapLive:  ms[3].Value.Uint64(),
		rusageErr: err,
	}
}

// liveHeapBytes forces two collections and reports the live heap. The
// second cycle clears what sync.Pool's victim cache kept alive through the
// first, so the figure is what the caller keeps reachable.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	return sampleProc().heapLive
}

// offHeap returns an n-element slice of a pointer-free type in anonymous
// memory mapped outside the Go heap, and the function that unmaps it. The
// window's sample buffers live there: on the heap, tens of megabytes the
// server never holds would raise the collector's heap goal and thin out the
// GC cycles the window is meant to measure. The slice must not grow past n.
func offHeap[T float64 | uint8](n int) ([]T, func(), error) {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("mmap %d bytes: %w", size, err)
	}
	s := unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n)[:0]
	return s, func() { syscall.Munmap(mem) }, nil
}
