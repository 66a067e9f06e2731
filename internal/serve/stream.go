// Streaming sweep delivery: when a sweep request asks for a stream (the
// /v1/sweep/stream endpoint, or Accept negotiation on /v1/sweep), the one
// sweep handler delivers a cache miss through streamSweep instead of
// serveCached. The run pushes partial aggregates to the client as the
// completed-trial frontier advances, instead of buffering the whole
// response. Time-to-first-result becomes one chunk of trials rather than
// the full sweep, and peak response memory is O(event), not O(trials).
//
// Two wire formats are negotiated from the Accept header:
//
//	application/x-ndjson (default)  one JSON object per line: progress
//	                                events, then the final result line
//	text/event-stream               SSE frames: "event: progress" /
//	                                "event: result" / "event: error"
//
// The final result line is the exact byte sequence the buffered delivery
// returns for the same spec — both share the prelude, the evaluation step
// and runSweep's rendering — so a client keeping only the last line has the
// canonical response, and the cache they fill is shared between deliveries.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"wroofline/internal/study"
	"wroofline/internal/sweep"
)

// Streaming content types.
const (
	ContentTypeNDJSON = "application/x-ndjson"
	ContentTypeSSE    = "text/event-stream"
)

// StreamFraming reads a sweep request's Accept header: stream reports
// whether it negotiates a streamed response on /v1/sweep, and sse whether a
// stream is framed as server-sent events rather than NDJSON. wfgate
// negotiates with it too, so the gate and the replica always agree.
func StreamFraming(r *http.Request) (stream, sse bool) {
	a := r.Header.Get("Accept")
	sse = strings.Contains(a, ContentTypeSSE)
	return sse || strings.Contains(a, ContentTypeNDJSON), sse
}

// streamSweep delivers a sweep as a stream. A cached response streams as
// one result event. A miss is evaluated on the client's context, not
// coalesced: a stream has exactly one consumer, so a mid-stream disconnect
// cancels the remaining trials promptly instead of burning slot time on an
// answer nobody will read. The effective deadline still caps it.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, key Key, spec *study.Spec) {
	if resp, ok := s.cache.Get(key); ok {
		s.metrics.cacheHits.Add(1)
		s.streamCached(w, r, resp)
		return
	}
	s.metrics.cacheMisses.Add(1)
	var enc *streamEncoder
	resp, err := s.evaluate(r.Context(), r, func(ctx context.Context) (Response, error) {
		enc = newStreamEncoder(w, r)
		enc.head("cold")
		// Progress callbacks arrive on sweep worker goroutines, serialized
		// by the completion-frontier lock; the handler goroutine blocks in
		// the run until they are done, so writes to the ResponseWriter never
		// interleave.
		return s.runSweep(ctx, spec, enc.progress)
	})
	switch {
	case err == nil:
		s.cache.Put(key, resp)
		enc.result(resp.Body)
		s.metrics.streams.Add(1)
	case enc == nil:
		// Refused before evaluating: no headers have gone out, so the
		// error is an ordinary status code.
		fail(w, err)
	case r.Context().Err() != nil:
		s.metrics.streamAborts.Add(1)
	default:
		enc.fail(statusOf(err), err)
	}
}

// streamCached serves an already-rendered response as a one-event stream:
// the result arrives in the negotiated framing with X-Cache: hit, so
// streaming clients hit the same cache as buffered ones.
func (s *Server) streamCached(w http.ResponseWriter, r *http.Request, resp Response) {
	enc := newStreamEncoder(w, r)
	enc.head("hit")
	enc.result(resp.Body)
	s.metrics.streams.Add(1)
}

// streamEncoder writes progress/result/error events in the negotiated
// framing, flushing after every event so each reaches the client
// immediately. Progress lines are appended into a reused scratch buffer
// with strconv — no per-event allocation once the buffer has grown. The
// first write error latches: a gone client turns the rest of the stream
// into no-ops while the evaluation context does the actual cancelling.
type streamEncoder struct {
	w   http.ResponseWriter
	f   http.Flusher
	sse bool
	buf []byte
	err error
}

// newStreamEncoder wraps the response writer in the framing r's Accept
// header negotiates (SSE, else NDJSON); a writer without Flusher (some test
// doubles) degrades to buffered writes rather than panicking.
func newStreamEncoder(w http.ResponseWriter, r *http.Request) *streamEncoder {
	f, _ := w.(http.Flusher)
	_, sse := StreamFraming(r)
	return &streamEncoder{w: w, f: f, sse: sse, buf: make([]byte, 0, 256)}
}

// head writes the stream headers and pushes them to the client before the
// first trial completes — time-to-first-byte is connection setup, not sweep
// progress.
func (e *streamEncoder) head(disposition string) {
	h := e.w.Header()
	if e.sse {
		h.Set("Content-Type", ContentTypeSSE)
	} else {
		h.Set("Content-Type", ContentTypeNDJSON)
	}
	h.Set("Cache-Control", "no-store")
	h["X-Cache"] = xcacheVals(disposition)
	e.w.WriteHeader(http.StatusOK)
	e.flush()
}

// flush pushes buffered bytes to the client when the writer supports it.
func (e *streamEncoder) flush() {
	if e.f != nil {
		e.f.Flush()
	}
}

// write sends one fully framed event, latching the first error.
func (e *streamEncoder) write(p []byte) {
	if e.err != nil {
		return
	}
	if _, err := e.w.Write(p); err != nil {
		e.err = err
		return
	}
	e.flush()
}

// progress appends one partial-aggregate event to the scratch buffer and
// sends it. The JSON field names match study.Progress / sweep.Summary tags,
// so clients decode events with the same structs the server defines.
func (e *streamEncoder) progress(p study.Progress) {
	if e.err != nil {
		return
	}
	b := e.buf[:0]
	if e.sse {
		b = append(b, "event: progress\ndata: "...)
	}
	b = append(b, `{"event":"progress","done":`...)
	b = strconv.AppendInt(b, int64(p.Done), 10)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(p.Total), 10)
	b = append(b, `,"summary":`...)
	b = appendSummary(b, p.Summary)
	b = append(b, '}')
	if e.sse {
		b = append(b, '\n', '\n')
	} else {
		b = append(b, '\n')
	}
	e.buf = b
	e.write(b)
}

// result sends the final event: the canonical buffered response body,
// byte-identical to what POST /v1/sweep returns for the same spec. NDJSON
// emits it verbatim as the last line; SSE wraps it in a result frame.
func (e *streamEncoder) result(body []byte) {
	if e.err != nil {
		return
	}
	if !e.sse {
		e.write(body)
		return
	}
	b := e.buf[:0]
	b = append(b, "event: result\ndata: "...)
	b = append(b, bytes.TrimSuffix(body, []byte{'\n'})...)
	b = append(b, '\n', '\n')
	e.buf = b
	e.write(b)
}

// fail reports an evaluation error in-band: headers are long gone on a
// stream, so the error travels as a terminal event instead of a status
// code.
func (e *streamEncoder) fail(status int, err error) {
	payload, merr := json.Marshal(map[string]any{
		"event":  "error",
		"status": status,
		"error":  err.Error(),
	})
	if merr != nil {
		return
	}
	b := e.buf[:0]
	if e.sse {
		b = append(b, "event: error\ndata: "...)
	}
	b = append(b, payload...)
	if e.sse {
		b = append(b, '\n', '\n')
	} else {
		b = append(b, '\n')
	}
	e.buf = b
	e.write(b)
}

// appendSummary renders a sweep.Summary with the same field names and
// ordering as its struct tags, using strconv appends to keep the per-event
// path allocation-free.
func appendSummary(b []byte, s sweep.Summary) []byte {
	b = append(b, `{"n":`...)
	b = strconv.AppendInt(b, int64(s.N), 10)
	b = append(b, `,"min":`...)
	b = appendFloat(b, s.Min)
	b = append(b, `,"max":`...)
	b = appendFloat(b, s.Max)
	b = append(b, `,"mean":`...)
	b = appendFloat(b, s.Mean)
	b = append(b, `,"p50":`...)
	b = appendFloat(b, s.P50)
	b = append(b, `,"p90":`...)
	b = appendFloat(b, s.P90)
	b = append(b, `,"p99":`...)
	b = appendFloat(b, s.P99)
	b = append(b, `,"tail_ratio":`...)
	b = appendFloat(b, s.TailRatio)
	return append(b, '}')
}

// appendFloat renders a float in the shortest round-trippable form.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
