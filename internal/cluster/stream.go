// Streaming pass-through: the gate forwards /v1/sweep/stream (and
// Accept-negotiated /v1/sweep) responses chunk by chunk instead of
// buffering them, so the replica's time-to-first-result survives the hop.
// Identical concurrent streams coalesce cluster-wide the same way buffered
// requests do, but over a tee: the first requester (the owner) opens the
// one upstream fetch and pumps its chunks into a shared append-only
// buffer; every client — owner included — replays that buffer from the
// start, so followers joining mid-stream receive the full event sequence.
// When the last subscriber disconnects before the stream completes, the
// upstream fetch is cancelled promptly: nobody is listening, so the
// replica's evaluation context cancels too.
package cluster

import (
	"context"
	"io"
	"net/http"
	"sync"

	"wroofline/internal/serve"
)

// streamFlight is one in-flight upstream stream shared by its subscribers:
// an append-only chunk buffer plus the response metadata, with a broadcast
// channel that is closed and replaced on every state change so replayers
// can wait without polling.
type streamFlight struct {
	mu     sync.Mutex
	notify chan struct{}
	buf    []byte
	// Response metadata, valid once started flips.
	status     int
	ctype      string
	retryAfter string
	backend    string
	started    bool
	done       bool
	err        error
	subs       int
	cancel     context.CancelFunc
}

// broadcast wakes every waiter. Callers hold the lock.
func (f *streamFlight) broadcast() {
	close(f.notify)
	f.notify = make(chan struct{})
}

// start records the upstream response head. Pump-side only.
func (f *streamFlight) start(status int, ctype, retryAfter, backend string) {
	f.mu.Lock()
	f.status, f.ctype, f.retryAfter, f.backend = status, ctype, retryAfter, backend
	f.started = true
	f.broadcast()
	f.mu.Unlock()
}

// append adds one upstream chunk to the shared buffer. Pump-side only.
func (f *streamFlight) append(p []byte) {
	f.mu.Lock()
	f.buf = append(f.buf, p...)
	f.broadcast()
	f.mu.Unlock()
}

// finish marks the stream complete (err nil) or failed. Pump-side only.
func (f *streamFlight) finish(err error) {
	f.mu.Lock()
	f.done = true
	f.err = err
	f.broadcast()
	f.mu.Unlock()
}

// streamProxy serves one streaming request: join (or start) the flight for
// the request's content address and framing, then replay the shared buffer
// to this client with a flush per chunk.
func (g *Gate) streamProxy(w http.ResponseWriter, r *http.Request, keyFn func([]byte) serve.Key) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	base := keyFn(body)
	// SSE and NDJSON framings of one spec are different byte streams; they
	// must not tee off the same flight, so the framing joins the key.
	framing := "ndjson"
	if _, sse := serve.StreamFraming(r); sse {
		framing = "sse"
	}
	key := serve.ContentKey("stream-"+framing, base[:])
	ureq := newUpstreamRequest(r, body)
	// Normalize the upstream path: a client that negotiated via Accept on
	// /v1/sweep still pumps through the dedicated endpoint, keeping one
	// upstream route (the replica's Accept handling picks the framing).
	ureq.path, ureq.rawPath = "/v1/sweep/stream", ""
	f, owner := g.joinStream(key, ureq)
	if !owner {
		g.streamCoalesced.Add(1)
	}
	g.serveStream(w, r, key, f)
}

// joinStream subscribes to the key's live flight, or creates one and
// starts its pump. The second return reports ownership (a fresh upstream
// fetch) versus coalescing onto an existing stream.
func (g *Gate) joinStream(key serve.Key, ureq *upstreamRequest) (*streamFlight, bool) {
	g.streamMu.Lock()
	defer g.streamMu.Unlock()
	if f, ok := g.streams[key]; ok {
		f.mu.Lock()
		// A finished, successful flight is still joinable — replay is a
		// cache hit. A failed or cancelled one is not: the next requester
		// deserves a fresh upstream attempt.
		usable := !f.done || f.err == nil
		if usable {
			f.subs++
		}
		f.mu.Unlock()
		if usable {
			return f, false
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.Timeout)
	f := &streamFlight{notify: make(chan struct{}), subs: 1, cancel: cancel}
	g.streams[key] = f
	go g.pump(ctx, key, f, ureq)
	return f, true
}

// leaveStream drops one subscriber. The last one out of an unfinished
// stream cancels the upstream fetch — no client is listening, so the
// replica should stop evaluating — and retires the flight so the next
// request starts fresh.
func (g *Gate) leaveStream(key serve.Key, f *streamFlight) {
	f.mu.Lock()
	f.subs--
	abandoned := f.subs == 0 && !f.done
	f.mu.Unlock()
	if !abandoned {
		return
	}
	f.cancel()
	g.streamMu.Lock()
	if g.streams[key] == f {
		delete(g.streams, key)
	}
	g.streamMu.Unlock()
}

// serveStream replays the flight's buffer to one client: wait for the
// response head, stamp headers, then forward each appended chunk with a
// flush until the stream completes or the client leaves.
func (g *Gate) serveStream(w http.ResponseWriter, r *http.Request, key serve.Key, f *streamFlight) {
	defer g.leaveStream(key, f)
	fl, _ := w.(http.Flusher)
	for {
		f.mu.Lock()
		started, done, err, notify := f.started, f.done, f.err, f.notify
		status, ctype, retryAfter, backendURL := f.status, f.ctype, f.retryAfter, f.backend
		f.mu.Unlock()
		if started {
			h := w.Header()
			if ctype != "" {
				h.Set("Content-Type", ctype)
			}
			if retryAfter != "" {
				h.Set("Retry-After", retryAfter)
			}
			h.Set("Cache-Control", "no-store")
			h.Set("X-Backend", backendURL)
			w.WriteHeader(status)
			if fl != nil {
				fl.Flush()
			}
			break
		}
		if done {
			// Failed before the response head: a normal problem response
			// still works, the stream never started.
			if err != nil && r.Context().Err() == nil {
				writeProblem(w, http.StatusBadGateway, err.Error())
			}
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
	pos := 0
	for {
		f.mu.Lock()
		buf, done, notify := f.buf, f.done, f.notify
		f.mu.Unlock()
		if pos < len(buf) {
			// The snapshot slice header is stable: the pump only appends,
			// and a growth reallocation leaves this snapshot's array
			// intact.
			if _, err := w.Write(buf[pos:]); err != nil {
				return
			}
			pos = len(buf)
			if fl != nil {
				fl.Flush()
			}
			continue
		}
		if done {
			g.streamed.Add(1)
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// pump is the flight owner's upstream fetch: route to the key's live
// owner replica (rendezvous failover applies only before the first byte —
// a partially relayed stream cannot restart on another backend), then
// append each chunk to the shared buffer as it arrives.
func (g *Gate) pump(ctx context.Context, key serve.Key, f *streamFlight, ureq *upstreamRequest) {
	defer func() {
		g.streamMu.Lock()
		if g.streams[key] == f {
			delete(g.streams, key)
		}
		g.streamMu.Unlock()
	}()
	var resp *http.Response
	picked, err := g.failover(ctx, key, func(b *backend, ownerURL string) (err error) {
		resp, err = g.transport.RoundTrip(ureq.build(ctx, b, ownerURL))
		return err
	})
	if err != nil {
		f.finish(err)
		return
	}
	defer resp.Body.Close()
	f.start(resp.StatusCode, first(resp.Header, "Content-Type"),
		first(resp.Header, "Retry-After"), picked.url)
	chunk := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(chunk)
		if n > 0 {
			f.append(chunk[:n])
		}
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			f.finish(err)
			return
		}
	}
}
