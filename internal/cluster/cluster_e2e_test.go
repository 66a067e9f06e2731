package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wroofline/internal/serve"
)

// testCluster is one gate in front of n live replicas, each configured
// with the others as peers (so rerouted requests can peer cache-fill).
type testCluster struct {
	gate     *Gate
	replicas []*serve.Server
	servers  []*httptest.Server
	urls     []string
	front    *httptest.Server
}

// newCluster boots n replicas and a gate. Listeners are created before the
// servers so every replica can be born knowing its siblings' URLs.
func newCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	return newWrappedCluster(t, n, nil)
}

// newWrappedCluster is newCluster with replica i's handler wrapped by
// wrap(i, handler) when wrap is non-nil, so a test can observe what each
// replica receives.
func newWrappedCluster(t *testing.T, n int, wrap func(int, http.Handler) http.Handler) *testCluster {
	t.Helper()
	c := &testCluster{
		replicas: make([]*serve.Server, n),
		servers:  make([]*httptest.Server, n),
		urls:     make([]string, n),
	}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		c.urls[i] = "http://" + ln.Addr().String()
	}
	for i := range lns {
		var peers []string
		for j, u := range c.urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		c.replicas[i] = serve.New(serve.Config{Peers: peers})
		h := c.replicas[i].Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewUnstartedServer(h)
		ts.Listener.Close()
		ts.Listener = lns[i]
		ts.Start()
		c.servers[i] = ts
		t.Cleanup(ts.Close)
	}
	g, err := New(Config{Backends: c.urls})
	if err != nil {
		t.Fatal(err)
	}
	c.gate = g
	c.front = httptest.NewServer(g.Handler())
	t.Cleanup(c.front.Close)
	return c
}

// evaluations sums Evaluations across every replica — the cluster-wide
// work counter the herd test pins to 1.
func (c *testCluster) evaluations() uint64 {
	var total uint64
	for _, r := range c.replicas {
		total += r.Evaluations()
	}
	return total
}

// post sends a JSON body and returns status, body bytes, and headers.
func post(t *testing.T, url, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

// get fetches a URL and returns status, body bytes, and headers.
func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

// TestClusterMatchesSingleServer is the equivalence contract: a 1-gate,
// 3-replica cluster returns byte-identical responses (and validators) to a
// standalone server, across every route and including error renderings.
func TestClusterMatchesSingleServer(t *testing.T) {
	single := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer single.Close()
	c := newCluster(t, 3)

	posts := []struct{ path, body string }{
		{"/v1/model", `{"case":"example"}`},
		{"/v1/model", `{ "case" : "lcls-cori" }`},
		{"/v1/sweep", `{"kind":"montecarlo","case":"lcls-cori","trials":8,"seed":3,` +
			`"sampler":{"model":"twostate","base":"1 GB/s","degraded":"0.2 GB/s","p_bad":0.4}}`},
		{"/v1/model", `{"case":"no-such-case"}`},
		{"/v1/model", `not json at all`},
	}
	for _, p := range posts {
		wantStatus, wantBody, wantHdr := post(t, single.URL+p.path, p.body)
		gotStatus, gotBody, gotHdr := post(t, c.front.URL+p.path, p.body)
		if gotStatus != wantStatus {
			t.Errorf("%s %q: gate status %d, single %d", p.path, p.body, gotStatus, wantStatus)
		}
		if !bytes.Equal(gotBody, wantBody) {
			t.Errorf("%s %q: gate body differs from single server\ngate:   %s\nsingle: %s",
				p.path, p.body, gotBody, wantBody)
		}
		if ge, we := gotHdr.Get("ETag"), wantHdr.Get("ETag"); ge != we {
			t.Errorf("%s %q: gate ETag %q, single %q", p.path, p.body, ge, we)
		}
	}

	for _, name := range []string{"example.svg", "WRF_Fig_2a.svg"} {
		wantStatus, wantBody, _ := get(t, single.URL+"/v1/figures/"+name)
		gotStatus, gotBody, _ := get(t, c.front.URL+"/v1/figures/"+name)
		if gotStatus != wantStatus || !bytes.Equal(gotBody, wantBody) {
			t.Errorf("figure %s: gate (%d, %d bytes) != single (%d, %d bytes)",
				name, gotStatus, len(gotBody), wantStatus, len(wantBody))
		}
	}
}

// TestClusterRoutesByContentAddress pins the routing invariant that makes
// the cluster cache-efficient: formatting variants of one spec route to
// one owner, so the second variant is a cache hit on the replica that
// rendered the first — the cluster holds one copy, not three.
func TestClusterRoutesByContentAddress(t *testing.T) {
	c := newCluster(t, 3)

	_, body1, hdr1 := post(t, c.front.URL+"/v1/model", `{"case":"example"}`)
	_, body2, hdr2 := post(t, c.front.URL+"/v1/model", `{  "case":   "example"  }`)
	if hdr1.Get("X-Backend") != hdr2.Get("X-Backend") {
		t.Errorf("formatting variants routed to different replicas: %q vs %q",
			hdr1.Get("X-Backend"), hdr2.Get("X-Backend"))
	}
	if got := hdr2.Get("X-Cache"); got != "hit" {
		t.Errorf("second variant X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("variants returned different bytes")
	}
	if got := c.evaluations(); got != 1 {
		t.Errorf("cluster evaluations = %d, want 1", got)
	}
}

// TestClusterHerdOneEvaluation is the headline scaling claim: 64 identical
// concurrent requests through the gate cost exactly ONE evaluation
// cluster-wide. Hash routing sends every member of the herd to the same
// owner; the gate's singleflight and the owner's cache/singleflight absorb
// the rest. Run under -race this also exercises the gate flight table.
func TestClusterHerdOneEvaluation(t *testing.T) {
	c := newCluster(t, 3)
	const herd = 64
	body := `{"case":"lcls-cori"}`

	var wg sync.WaitGroup
	bodies := make([][]byte, herd)
	statuses := make([]int, herd)
	start := make(chan struct{})
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(c.front.URL+"/v1/model", "application/json",
				strings.NewReader(body))
			if err != nil {
				t.Errorf("herd member %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			bodies[i], statuses[i] = data, resp.StatusCode
		}(i)
	}
	close(start)
	wg.Wait()

	if got := c.evaluations(); got != 1 {
		t.Errorf("cluster evaluations = %d, want exactly 1 for a %d-way herd", got, herd)
	}
	for i := 1; i < herd; i++ {
		if statuses[i] != statuses[0] || !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("herd member %d got a different response (status %d vs %d)",
				i, statuses[i], statuses[0])
		}
	}
	if statuses[0] != http.StatusOK {
		t.Fatalf("herd status = %d", statuses[0])
	}
}

// TestClusterReplicaKill is the fail-open contract: after a replica dies
// mid-run, requests for its keys rehash to a survivor and keep answering
// 200 — no 5xx window, and the reroute is visible in the gate counters.
func TestClusterReplicaKill(t *testing.T) {
	c := newCluster(t, 3)

	// Find a body owned by each replica so we can target the victim.
	bodyFor := make(map[int]string)
	for i := 0; len(bodyFor) < 3 && i < 64; i++ {
		body := fmt.Sprintf(`{"case":"example","curve_samples":%d}`, 16+i)
		key := mustModelKey(t, body)
		bodyFor[c.gate.ring.Owner(key, nil)] = body
	}
	if len(bodyFor) < 3 {
		t.Fatal("could not find keys covering all replicas")
	}

	const victim = 0
	victimBody := bodyFor[victim]
	status, wantBytes, hdr := post(t, c.front.URL+"/v1/model", victimBody)
	if status != http.StatusOK || hdr.Get("X-Backend") != c.urls[victim] {
		t.Fatalf("warm request: status %d backend %q, want 200 via %q",
			status, hdr.Get("X-Backend"), c.urls[victim])
	}

	c.servers[victim].Close()

	// The very next request for the victim's key must rehash and answer —
	// passive mark-down happens inside this request, not before it.
	status, gotBytes, hdr := post(t, c.front.URL+"/v1/model", victimBody)
	if status != http.StatusOK {
		t.Fatalf("post-kill request: status %d, want 200 (fail-open rehash)", status)
	}
	if hdr.Get("X-Backend") == c.urls[victim] {
		t.Error("post-kill request claims the dead backend served it")
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Error("rehashed response differs from the pre-kill bytes")
	}

	// A burst across all keys must stay 5xx-free now that the victim is
	// marked down.
	for i := 0; i < 32; i++ {
		status, _, _ := post(t, c.front.URL+"/v1/model",
			fmt.Sprintf(`{"case":"example","curve_samples":%d}`, 100+i))
		if status >= 500 {
			t.Fatalf("burst request %d: status %d after replica kill", i, status)
		}
	}

	snap := c.gate.MetricsSnapshot()
	if snap.Rerouted == 0 {
		t.Error("no rerouted requests counted after a replica kill")
	}
	if snap.UpstreamErrors == 0 {
		t.Error("no upstream errors counted despite a dead backend")
	}
	for _, b := range snap.Backends {
		if b.URL == c.urls[victim] && b.Up {
			t.Error("dead backend still marked up after passive failure")
		}
	}
}

// TestClusterPeerFillOnReroute wires the two halves together: a key warmed
// on its owner, then rerouted (owner marked down at the gate, process
// still alive), is served by a survivor via peer cache-fill — the owner's
// exact bytes, zero extra evaluations.
func TestClusterPeerFillOnReroute(t *testing.T) {
	c := newCluster(t, 3)
	body := `{"case":"example"}`
	key := mustModelKey(t, body)
	owner := c.gate.ring.Owner(key, nil)

	status, wantBytes, _ := post(t, c.front.URL+"/v1/model", body)
	if status != http.StatusOK {
		t.Fatalf("warm: status %d", status)
	}
	if got := c.evaluations(); got != 1 {
		t.Fatalf("warm evaluations = %d", got)
	}

	// Mark the owner down at the gate only — the replica process is alive,
	// so the survivor can fill from its cache.
	c.gate.backends[owner].up.Store(false)

	status, gotBytes, hdr := post(t, c.front.URL+"/v1/model", body)
	if status != http.StatusOK {
		t.Fatalf("rerouted: status %d", status)
	}
	if hdr.Get("X-Backend") == c.urls[owner] {
		t.Error("rerouted request served by the downed owner")
	}
	if got := hdr.Get("X-Cache"); got != "peer" {
		t.Errorf("rerouted X-Cache = %q, want peer (fill from owner's cache)", got)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Error("peer-filled bytes differ from the owner's rendering")
	}
	if got := c.evaluations(); got != 1 {
		t.Errorf("evaluations after reroute = %d, want still 1 (peer fill, not re-eval)", got)
	}
}

// mustModelKey canonicalizes a model body or fails the test.
func mustModelKey(t *testing.T, body string) serve.Key {
	t.Helper()
	k, err := serve.ModelKey([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestGateConditionalRequests pins gate-level If-None-Match: the gate
// applies RFC 9110 member-list matching against the upstream validator, so
// a client revalidating through the gate gets 304 without the body — even
// when its header is a list or carries weak prefixes.
func TestGateConditionalRequests(t *testing.T) {
	c := newCluster(t, 1)
	body := `{"case":"example"}`
	status, _, hdr := post(t, c.front.URL+"/v1/model", body)
	if status != http.StatusOK || hdr.Get("ETag") == "" {
		t.Fatalf("prime: status %d etag %q", status, hdr.Get("ETag"))
	}
	etag := hdr.Get("ETag")

	for _, inm := range []string{
		etag,
		`"stale-one", ` + etag + `, "stale-two"`,
		"W/" + etag,
		"*",
	} {
		req, _ := http.NewRequest("POST", c.front.URL+"/v1/model", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("If-None-Match", inm)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status %d, want 304", inm, resp.StatusCode)
		}
		if len(data) != 0 {
			t.Errorf("If-None-Match %q: 304 carried %d body bytes", inm, len(data))
		}
	}
	if got := c.gate.MetricsSnapshot().NotModified; got != 4 {
		t.Errorf("not_modified = %d, want 4", got)
	}
}

// TestGateProbeLifecycle drives the active health checker against stub
// backends whose health the test toggles: FailAfter consecutive failures
// take a replica out of rotation, one good probe puts it back.
func TestGateProbeLifecycle(t *testing.T) {
	var healthy atomic2 // healthy.Store(false) makes the stub fail probes
	healthy.Store(true)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer stub.Close()

	g, err := New(Config{Backends: []string{stub.URL}, FailAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	g.ProbeNow(ctx)
	if !g.backends[0].up.Load() {
		t.Fatal("healthy backend marked down")
	}

	healthy.Store(false)
	g.ProbeNow(ctx)
	if !g.backends[0].up.Load() {
		t.Fatal("backend down after 1 failure with FailAfter=2")
	}
	g.ProbeNow(ctx)
	if g.backends[0].up.Load() {
		t.Fatal("backend still up after FailAfter consecutive failures")
	}

	healthy.Store(true)
	g.ProbeNow(ctx)
	if !g.backends[0].up.Load() {
		t.Fatal("backend not restored after a successful probe")
	}
	if g.backends[0].probeFails.Load() != 0 {
		t.Error("consecutive-failure counter not reset on recovery")
	}
}

// atomic2 is a tiny atomic bool (avoids importing sync/atomic twice under
// test-local names).
type atomic2 struct {
	mu sync.Mutex
	v  bool
}

func (a *atomic2) Store(v bool) { a.mu.Lock(); a.v = v; a.mu.Unlock() }
func (a *atomic2) Load() bool   { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

// TestGateFlightWaiterCancellation mirrors the serve-layer bugfix at the
// gate tier: a waiter coalesced onto a slow upstream fetch must return as
// soon as its client gives up, while the fetch completes for the leader.
func TestGateFlightWaiterCancellation(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte("ok"))
			return
		}
		<-release
		w.Write([]byte(`{"slow":true}`))
	}))
	defer slow.Close()

	g, err := New(Config{Backends: []string{slow.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	body := `{"case":"example"}`
	key := mustModelKey(t, body)

	// Leader: blocks inside the stub until release.
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		resp, err := http.Post(front.URL+"/v1/model", "application/json", strings.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool {
		_, inFlight := g.flight.Waiting(key)
		return inFlight
	}, "leader flight never appeared")

	// Waiter: same key, cancellable context.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", front.URL+"/v1/model", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	waiterDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		waiterDone <- err
	}()
	waitFor(t, func() bool {
		n, _ := g.flight.Waiting(key)
		return n > 0
	}, "waiter never parked")

	cancel()
	select {
	case err := <-waiterDone:
		if err == nil {
			t.Error("cancelled waiter completed without error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter stuck behind the slow upstream fetch")
	}
	select {
	case <-leaderDone:
		t.Fatal("leader finished early; the test never exercised the waiter path")
	default:
	}

	// Let the leader's fetch complete so the servers can close cleanly —
	// this must happen before the deferred Closes, which wait on the
	// leader's connection.
	close(release)
	select {
	case <-leaderDone:
	case <-time.After(5 * time.Second):
		t.Fatal("leader never completed after release")
	}
}

// waitFor polls cond until true or the deadline, failing the test on
// timeout.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGateRejectsOversizedBody enforces the body cap at the gate so herds
// of oversized requests never reach the replicas.
func TestGateRejectsOversizedBody(t *testing.T) {
	c := newCluster(t, 1)
	big := strings.Repeat("x", 1<<20+1)
	status, _, _ := post(t, c.front.URL+"/v1/model", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", status)
	}
	if got := c.evaluations(); got != 0 {
		t.Errorf("oversized body reached a replica: %d evaluations", got)
	}
}

// TestGateHealthzAndMetrics pins the observability payloads.
func TestGateHealthzAndMetrics(t *testing.T) {
	c := newCluster(t, 2)
	post(t, c.front.URL+"/v1/model", `{"case":"example"}`)

	status, body, hdr := get(t, c.front.URL+"/healthz")
	if status != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("healthz: status %d ctype %q", status, hdr.Get("Content-Type"))
	}
	for _, u := range c.urls {
		if !strings.Contains(string(body), u) {
			t.Errorf("healthz missing backend %s: %s", u, body)
		}
	}

	status, body, _ = get(t, c.front.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	if !strings.Contains(string(body), `"requests": 1`) {
		t.Errorf("metrics did not count the proxied request: %s", body)
	}
}

// TestNewValidation pins constructor errors: empty backend list, bare
// hosts, duplicates.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty backend list accepted")
	}
	if _, err := New(Config{Backends: []string{"replica-a:8080"}}); err == nil {
		t.Error("bare host:port accepted as a backend URL")
	}
	if _, err := New(Config{Backends: []string{"http://a", "http://a/"}}); err == nil {
		t.Error("duplicate backends (modulo trailing slash) accepted")
	}
}
