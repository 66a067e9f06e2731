// Command wfserved runs the Workflow Roofline analysis service: model
// bounds, classification, and advice (POST /v1/model), ensemble studies in
// the wfsweep spec format (POST /v1/sweep), and paper figures as SVG
// (GET /v1/figures/{name}), plus /healthz and /metrics. Responses are
// cached by the SHA-256 of the canonicalized request and concurrent
// identical requests coalesce onto a single evaluation — see internal/serve.
//
// Usage:
//
//	wfserved                       # listen on :8080
//	wfserved -addr :9000 -workers 8
//	wfserved -cache 1024 -queue 8 -timeout 60s
//	wfserved -plan-cache-entries 1024 # second-level compiled-plan cache (0 disables)
//	wfserved -shards 64             # more cache/singleflight shards
//	wfserved -tenant-weights heavy=1,light=4 -max-waiters 32
//	wfserved -tenant-rate 50 -tenant-burst 100
//	wfserved -pprof localhost:6060 # expose net/http/pprof on a side port
//
// Evaluation slots are granted across tenants (the X-Tenant header) by
// weighted-fair queueing; -tenant-rate adds per-tenant token buckets that
// shed excess load with 503 + Retry-After. Streaming sweep delivery
// (POST /v1/sweep/stream, or Accept: application/x-ndjson on /v1/sweep)
// needs no flags.
//
// The process drains cleanly on SIGINT/SIGTERM: in-flight requests finish
// (up to -drain), new connections are refused.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wroofline/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "wfserved:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it serves until ctx is cancelled, then
// drains. If ready is non-nil it receives the bound address once listening
// (tests pass ":0" and read the port from here).
func run(ctx context.Context, args []string, logOut io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("wfserved", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		workers = fs.Int("workers", 0, "sweep worker pool per evaluation (0 = GOMAXPROCS)")
		cache   = fs.Int("cache", 512, "result cache capacity (responses)")
		plans   = fs.Int("plan-cache-entries", 512, "second-level plan cache capacity (compiled plans, built models, corpus shapes, CV 0 corpus outcomes); 0 or negative disables")
		shards  = fs.Int("shards", 16, "cache/singleflight shard count (power of two, 1..256)")
		queue   = fs.Int("queue", 4, "max concurrent evaluations")
		waiters = fs.Int("max-waiters", 64, "per-tenant admission queue bound; arrivals beyond it are shed with 503 + Retry-After")
		weights = fs.String("tenant-weights", "", "weighted-fair tenant shares as name=weight pairs, e.g. \"heavy=1,light=4\" (unlisted tenants get 1)")
		rate    = fs.Float64("tenant-rate", 0, "per-tenant admission token rate per second; 0 disables rate shedding")
		burst   = fs.Float64("tenant-burst", 0, "per-tenant token bucket depth (default max(1, -tenant-rate))")
		timeout = fs.Duration("timeout", 30*time.Second, "per-request evaluation budget")
		drain   = fs.Duration("drain", 15*time.Second, "shutdown drain budget for in-flight requests")
		pprofAt = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
		peers   = fs.String("peers", "", "comma-separated base URLs of sibling replicas for peer cache-fill (cluster mode); empty disables outbound fills")
	)
	fs.SetOutput(logOut)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 1 || *shards > 256 || *shards&(*shards-1) != 0 {
		return fmt.Errorf("-shards must be a power of two in [1, 256], got %d", *shards)
	}

	tenantWeights, err := parseWeights(*weights)
	if err != nil {
		return err
	}

	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			if !strings.HasPrefix(p, "http://") && !strings.HasPrefix(p, "https://") {
				return fmt.Errorf("-peers entries must be base URLs, got %q", p)
			}
			peerList = append(peerList, p)
		}
	}

	logger := slog.New(slog.NewJSONHandler(logOut, nil))
	s := serve.New(serve.Config{
		Workers:          *workers,
		CacheEntries:     *cache,
		PlanCacheEntries: planCacheConfig(*plans),
		QueueDepth:       *queue,
		MaxWaiters:       *waiters,
		TenantWeights:    tenantWeights,
		TenantRate:       *rate,
		TenantBurst:      *burst,
		Timeout:          *timeout,
		Shards:           *shards,
		Logger:           logger,
		Peers:            peerList,
	})
	if len(peerList) > 0 {
		logger.Info("peer cache-fill enabled", "peers", peerList)
	}
	// The server may degrade the shard count for small caches (a shard must
	// own at least two entries); log the effective geometry, not the flag.
	entries, effShards := s.CacheGeometry()
	logger.Info("cache geometry", "entries", entries, "shards", effShards)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The profiler gets its own listener and mux so /debug/pprof is never
	// reachable through the public service address.
	var pprofSrv *http.Server
	if *pprofAt != "" {
		pln, err := net.Listen("tcp", *pprofAt)
		if err != nil {
			return fmt.Errorf("pprof listen: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		logger.Info("pprof listening", "addr", pln.Addr().String())
		go func() {
			if err := pprofSrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof server", "err", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("listening", "addr", ln.Addr().String())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("draining", "budget", drain.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if pprofSrv != nil {
		if err := pprofSrv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("pprof shutdown", "err", err)
		}
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("stopped")
	return nil
}

// planCacheConfig maps the -plan-cache-entries flag onto the Config field,
// where zero means "default": at the flag, 0 and negative both disable.
func planCacheConfig(n int) int {
	if n <= 0 {
		return -1
	}
	return n
}

// parseWeights parses "name=weight,name=weight" into the tenant-share map;
// an empty string means no overrides.
func parseWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	weights := map[string]float64{}
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, val, ok := strings.Cut(pair, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("-tenant-weights entries must be name=weight, got %q", pair)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("-tenant-weights %q: weight must be a positive number", pair)
		}
		weights[name] = w
	}
	return weights, nil
}
