package main

import (
	"bytes"
	"fmt"
	"net/http"

	"wroofline/internal/serve"
)

// oracleSamples is how many scan/explore requests per run are re-checked
// byte for byte; oracleRange is the stream prefix they are drawn from,
// short enough that every run reaches it.
const (
	oracleSamples = 24
	oracleRange   = 1000
)

// oracleSample is one timed request kept for the oracle.
type oracleSample struct {
	index   int
	req     request
	reqBody []byte
	got     []byte
}

// sampleIndices picks the oracle's requests from the seed: oracleSamples
// distinct stream indices below oracleRange.
func sampleIndices(seed uint64) map[int]bool {
	r := newRNG(seed, "oracle")
	out := make(map[int]bool, oracleSamples)
	for len(out) < oracleSamples {
		out[r.intn(oracleRange)] = true
	}
	return out
}

// newReference is the oracle's server: fresh, plan cache disabled, and the
// sweep pool at its default width, so agreement also covers cache on/off
// and worker geometry.
func newReference() *serve.Server {
	return serve.New(serve.Config{PlanCacheEntries: -1})
}

// checkPool compares every dashboard pool body the gate served with the
// reference server's bytes for the same request.
func checkPool(r *rig) []error {
	ref := newReference().Handler()
	var errs []error
	for i, e := range r.pool {
		status, want := call(ref, e.method, e.path, e.body, false)
		if status != http.StatusOK {
			errs = append(errs, fmt.Errorf("reference %s %s: status %d", e.method, e.path, status))
			continue
		}
		if !bytes.Equal(r.poolResp[i], want) {
			errs = append(errs, fmt.Errorf("%s %s: gate bytes differ from the reference", e.method, e.path))
		}
	}
	return errs
}

// checkSamples re-runs each sampled scan/explore request on a reference
// server outside the timed window. The measured body must equal the
// reference's buffered body (for a stream, its final line must), and for a
// sweep the reference's own streamed final line must equal its buffered
// body: the core invariant that delivery mode never changes the bytes.
func checkSamples(samples []oracleSample) []error {
	ref := newReference()
	var errs []error
	for _, s := range samples {
		status, want := call(ref.Handler(), s.req.method, s.req.path, s.reqBody, false)
		if status != http.StatusOK {
			errs = append(errs, fmt.Errorf("request %d: reference status %d: %.200s", s.index, status, want))
			continue
		}
		got := s.got
		if s.req.stream {
			final, err := streamFinal(got)
			if err != nil {
				errs = append(errs, fmt.Errorf("request %d: %w", s.index, err))
				continue
			}
			got = final
		}
		if !bytes.Equal(got, want) {
			errs = append(errs, fmt.Errorf("request %d (%s): body differs from the reference", s.index, s.req.path))
			continue
		}
		if s.req.path != "/v1/sweep" {
			continue
		}
		// Flushed, the reference evaluates the stream cold instead of
		// replaying the buffered body it just cached.
		ref.FlushCache()
		status, streamed := call(ref.Handler(), s.req.method, s.req.path, s.reqBody, true)
		final, err := streamFinal(streamed)
		switch {
		case status != http.StatusOK || err != nil:
			errs = append(errs, fmt.Errorf("request %d: reference stream: status %d, %v", s.index, status, err))
		case !bytes.Equal(final, want):
			errs = append(errs, fmt.Errorf("request %d: streamed final line differs from the buffered body", s.index))
		}
	}
	return errs
}
