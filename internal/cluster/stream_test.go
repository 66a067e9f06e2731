package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wroofline/internal/serve"
)

func streamSweepSpec(trials int, seed uint64) string {
	return fmt.Sprintf(`{"kind":"montecarlo","case":"lcls-cori","trials":%d,"seed":%d,"batch":16,`+
		`"sampler":{"model":"twostate","base":"1 GB/s","degraded":"0.2 GB/s","p_bad":0.4}}`, trials, seed)
}

// streamThrough opens a streaming POST and returns the response plus all
// lines read to EOF.
func streamThrough(t *testing.T, url, body string) (*http.Response, []string) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return resp, lines
}

// waitStream polls until cond holds or fails the test.
func waitStream(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterStreamMatchesSingleServer extends the equivalence contract to
// streaming: the final NDJSON line of a cold stream through a 1-gate,
// 3-replica cluster is byte-identical to a standalone server's buffered
// /v1/sweep body, with at least one progress event ahead of it.
func TestClusterStreamMatchesSingleServer(t *testing.T) {
	single := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer single.Close()
	c := newCluster(t, 3)
	spec := streamSweepSpec(192, 33)

	_, want, _ := post(t, single.URL+"/v1/sweep", spec)

	resp, lines := streamThrough(t, c.front.URL+"/v1/sweep/stream", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != serve.ContentTypeNDJSON {
		t.Errorf("Content-Type = %q, want %q", got, serve.ContentTypeNDJSON)
	}
	if resp.Header.Get("X-Backend") == "" {
		t.Error("gate stream carries no X-Backend")
	}
	if len(lines) < 2 {
		t.Fatalf("stream through gate produced %d lines, want progress + result", len(lines))
	}
	if lines[len(lines)-1] != strings.TrimSuffix(string(want), "\n") {
		t.Errorf("final line through the gate differs from standalone buffered body:\n%s\nvs\n%s",
			lines[len(lines)-1], strings.TrimSuffix(string(want), "\n"))
	}
	for _, line := range lines[:len(lines)-1] {
		if !strings.Contains(line, `"event":"progress"`) {
			t.Errorf("non-final line is not a progress event: %s", line)
		}
	}
	if snap := c.gate.MetricsSnapshot(); snap.Streamed != 1 {
		t.Errorf("gate streamed = %d, want 1", snap.Streamed)
	}

	// Accept negotiation on /v1/sweep takes the same streaming path.
	req, _ := http.NewRequest("POST", c.front.URL+"/v1/sweep", strings.NewReader(spec))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", serve.ContentTypeNDJSON)
	nresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer nresp.Body.Close()
	if got := nresp.Header.Get("Content-Type"); got != serve.ContentTypeNDJSON {
		t.Errorf("negotiated Content-Type through gate = %q, want %q", got, serve.ContentTypeNDJSON)
	}
}

// TestClusterStreamReplicaKill pins stream failover: with the primary
// owner of a streamed spec dead, the pump walks on to the next replica
// before the first byte, names the dead owner to it in X-Peer-Owner, and
// the stream's final line is still a standalone server's buffered body.
func TestClusterStreamReplicaKill(t *testing.T) {
	single := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer single.Close()
	var mu sync.Mutex
	peerOwner := make(map[int]string)
	c := newWrappedCluster(t, 3, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if o := r.Header.Get(serve.PeerOwnerHeader); o != "" {
				mu.Lock()
				peerOwner[i] = o
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		})
	})
	spec := streamSweepSpec(192, 41)
	_, want, _ := post(t, single.URL+"/v1/sweep", spec)

	base, err := serve.SweepKey([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	victim := c.gate.ring.Owner(serve.ContentKey("stream-ndjson", base[:]), nil)
	c.servers[victim].Close()

	resp, lines := streamThrough(t, c.front.URL+"/v1/sweep/stream", spec)
	if resp.StatusCode != http.StatusOK || len(lines) == 0 {
		t.Fatalf("post-kill stream: status %d, %d lines", resp.StatusCode, len(lines))
	}
	if got := lines[len(lines)-1]; got != strings.TrimSuffix(string(want), "\n") {
		t.Errorf("final line after failover differs from standalone buffered body:\n%s\nvs\n%s", got, want)
	}
	handler := -1
	for i, u := range c.urls {
		if resp.Header.Get("X-Backend") == u {
			handler = i
		}
	}
	if handler < 0 || handler == victim {
		t.Fatalf("stream served by X-Backend %q, want a survivor of %q", resp.Header.Get("X-Backend"), c.urls[victim])
	}
	snap := c.gate.MetricsSnapshot()
	if snap.Rerouted != 1 {
		t.Errorf("rerouted = %d, want 1", snap.Rerouted)
	}
	if snap.UpstreamErrors == 0 {
		t.Error("no upstream error counted for the dead owner")
	}
	mu.Lock()
	defer mu.Unlock()
	if got := peerOwner[handler]; got != c.urls[victim] {
		t.Errorf("handling replica got %s %q, want the dead owner %q", serve.PeerOwnerHeader, got, c.urls[victim])
	}
}

// TestClusterStreamCoalesces pins the tee: two concurrent identical
// streams trigger exactly one replica evaluation, the follower replays the
// owner's buffer byte-for-byte from the start, and the gate counts the
// coalesce.
func TestClusterStreamCoalesces(t *testing.T) {
	c := newCluster(t, 3)
	// The owner's evaluation must outlast the follower's start (a 5 ms
	// poll, then a new request) by a wide margin; 400k trials take about
	// 100 ms on a 2-CPU host.
	spec := streamSweepSpec(400_000, 44)

	type result struct {
		lines []string
	}
	first := make(chan result, 1)
	second := make(chan result, 1)
	go func() {
		_, lines := streamThrough(t, c.front.URL+"/v1/sweep/stream", spec)
		first <- result{lines}
	}()
	// Fire the follower once the owner's flight exists, so the join is a
	// genuine mid-stream tee rather than a lucky race.
	waitStream(t, func() bool {
		c.gate.streamMu.Lock()
		defer c.gate.streamMu.Unlock()
		return len(c.gate.streams) == 1
	}, "owner flight never appeared")
	go func() {
		_, lines := streamThrough(t, c.front.URL+"/v1/sweep/stream", spec)
		second <- result{lines}
	}()

	a, b := <-first, <-second
	if len(a.lines) == 0 || len(b.lines) == 0 {
		t.Fatal("empty stream")
	}
	if strings.Join(a.lines, "\n") != strings.Join(b.lines, "\n") {
		t.Error("follower's replayed stream differs from the owner's")
	}
	if got := c.evaluations(); got != 1 {
		t.Errorf("cluster ran %d evaluations for two identical streams, want 1", got)
	}
	if snap := c.gate.MetricsSnapshot(); snap.StreamCoalesced != 1 {
		t.Errorf("stream_coalesced = %d, want 1", snap.StreamCoalesced)
	}
}

// TestClusterStreamDisconnectCancelsUpstream pins last-subscriber-out
// cancellation: a client abandoning a huge stream mid-flight makes the
// gate cancel its upstream fetch, which the replica sees as a disconnect
// and counts as a stream abort; the flight table is left empty.
func TestClusterStreamDisconnectCancelsUpstream(t *testing.T) {
	c := newCluster(t, 3)
	spec := streamSweepSpec(2_000_000, 55)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", c.front.URL+"/v1/sweep/stream",
		strings.NewReader(spec))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("first stream byte: %v", err)
	}
	cancel()
	resp.Body.Close()

	// Some replica must record the upstream cancellation as a stream abort.
	waitStream(t, func() bool {
		for _, u := range c.urls {
			_, body, _ := get(t, u+"/metrics")
			var snap serve.Snapshot
			if json.Unmarshal(body, &snap) == nil && snap.StreamAborts >= 1 {
				return true
			}
		}
		return false
	}, "gate disconnect never cancelled the replica's streaming evaluation")

	waitStream(t, func() bool {
		c.gate.streamMu.Lock()
		defer c.gate.streamMu.Unlock()
		return len(c.gate.streams) == 0
	}, "abandoned flight not retired from the stream table")
}
