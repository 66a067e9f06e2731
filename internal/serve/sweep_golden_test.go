package serve

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// -update rewrites the checked-in sweep body goldens.
var update = flag.Bool("update", false, "rewrite testdata golden files")

// sweepGoldenSpecs are the specs whose rendered /v1/sweep bodies are pinned:
// the dashboard's fixed sweeps, the scan corpus and Monte Carlo templates,
// the explore corpus and failures templates (three seeds each) and the
// cmd/wfsweep golden specs.
func sweepGoldenSpecs() []struct{ name, spec string } {
	specs := []struct{ name, spec string }{
		{"dashboard-montecarlo", `{"kind":"montecarlo","case":"lcls-cori","trials":200,"seed":7,"streams":5,"sampler":{"model":"twostate","base":"1 GB/s","degraded":"0.2 GB/s","p_bad":0.4}}`},
		{"dashboard-grid", `{"kind":"grid","case":"lcls-cori","p":5,"resources":[{"resource":"memory","factors":[1,2,10]}],"wall_factors":[1,2],"intra_task":[{"k":2,"efficiency":0.9}]}`},
		{"dashboard-survey", `{"kind":"survey","machine":"perlmutter","partition":"cpu","widths":[4,8,16],"depths":[2,3],"nodes_per_task":2,"work":{"flops":"5 TFLOP","fs":"100 GB"}}`},
		{"dashboard-failures", `{"kind":"failures","case":"lcls-cori","trials":50,"seed":7,"failure":{"task_fail_prob":0.02,"restage_rate":"1 GB/s"}}`},
		{"dashboard-corpus", `{"kind":"corpus","machine":"perlmutter-numa","count":20,"seed":11,"template":{"width":4,"depth":3,"payload":"1 GB"}}`},

		{"wfsweep-corpus-small", `{"kind":"corpus","machine":"perlmutter-numa","count":20,"seed":7,"template":{"width":4,"depth":3,"cv":0.4,"payload":"512 MB"}}`},
		{"wfsweep-corpus-ridgeline", `{"kind":"corpus","machine":"ridgeline","count":10,"seed":3,"families":["fanout","epigenomics"],"template":{"width":6,"depth":3,"nodes_per_task":4,"net":"20 GB","cv":0.3,"payload":"1 GB"}}`},
		{"wfsweep-corpus-batched-analytic", `{"kind":"corpus","machine":"perlmutter-numa","count":12,"seed":9,"batch":4,"template":{"width":3,"depth":2,"cv":0.3,"fs":"0","payload":"0"}}`},
		{"wfsweep-montecarlo-twostate", `{"kind":"montecarlo","case":"lcls-cori","trials":200,"seed":7,"streams":5,"sampler":{"model":"twostate","base":"1 GB/s","degraded":"0.2 GB/s","p_bad":0.4}}`},
		{"wfsweep-montecarlo-lognormal", `{"kind":"montecarlo","case":"lcls-cori","trials":150,"seed":11,"streams":2,"batch":16,"sampler":{"model":"lognormal","base":"2 GB/s","mu":0.2,"sigma":0.6}}`},
		{"wfsweep-grid", `{"kind":"grid","case":"lcls-cori","p":5,"resources":[{"resource":"filesystem","factors":[1,4]},{"resource":"memory","factors":[1,10]}],"wall_factors":[1,2],"intra_task":[{"k":1},{"k":2,"efficiency":0.9}]}`},
		{"wfsweep-survey", `{"kind":"survey","machine":"perlmutter","partition":"cpu","widths":[4,8,16],"depths":[2,3],"nodes_per_task":2,"work":{"flops":"5 TFLOP","fs":"100 GB"}}`},
		{"wfsweep-failures", `{"kind":"failures","case":"lcls-cori","trials":60,"seed":7,"failure":{"task_fail_prob":0.05,"restage_rate":"1 GB/s","retry":{"max_attempts":5,"backoff_seconds":1,"backoff_factor":2}}}`},
	}
	for _, seed := range []uint64{1, 48271, 1<<53 - 1} {
		specs = append(specs,
			struct{ name, spec string }{fmt.Sprintf("scan-corpus-%d", seed),
				fmt.Sprintf(`{"kind":"corpus","machine":"perlmutter-numa","count":30,"seed":%d,"template":{"width":5,"depth":3,"payload":"512 MB"}}`, seed)},
			struct{ name, spec string }{fmt.Sprintf("scan-montecarlo-%d", seed),
				fmt.Sprintf(`{"kind":"montecarlo","case":"lcls-cori","trials":256,"seed":%d,"streams":5,"sampler":{"model":"twostate","base":"1 GB/s","degraded":"0.2 GB/s","p_bad":0.4}}`, seed)},
			struct{ name, spec string }{fmt.Sprintf("explore-corpus-%d", seed),
				fmt.Sprintf(`{"kind":"corpus","machine":"perlmutter-numa","count":10,"seed":%d,"template":{"width":6,"depth":3,"cv":0.4,"payload":"1 GB"}}`, seed)},
			struct{ name, spec string }{fmt.Sprintf("explore-failures-%d", seed),
				fmt.Sprintf(`{"kind":"failures","case":"lcls-cori","trials":600,"seed":%d,"failure":{"task_fail_prob":0.02,"restage_rate":"1 GB/s"}}`, seed)},
		)
	}
	return specs
}

// TestSweepBodyGolden pins the exact bytes of every study kind's /v1/sweep
// response: the buffered body and the final line of a cold NDJSON stream
// must both equal the checked-in golden. The body's bytes are its ETag and
// its cache entry, so no encoder change may move them. Run
// `go test ./internal/serve -run TestSweepBodyGolden -update` after an
// intentional change and review the diff.
func TestSweepBodyGolden(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, tc := range sweepGoldenSpecs() {
		t.Run(tc.name, func(t *testing.T) {
			s.FlushCache()
			status, buffered, _ := post(t, ts.URL+"/v1/sweep", tc.spec)
			if status != http.StatusOK {
				t.Fatalf("buffered status %d: %s", status, buffered)
			}
			s.FlushCache()
			resp, lines := streamLines(t, ts.URL+"/v1/sweep/stream", tc.spec, "")
			if resp.StatusCode != http.StatusOK || len(lines) == 0 {
				t.Fatalf("stream status %d, %d lines", resp.StatusCode, len(lines))
			}
			if got := resp.Header.Get("X-Cache"); got != "cold" {
				t.Fatalf("stream X-Cache %q, want cold", got)
			}
			final := append([]byte(lines[len(lines)-1]), '\n')
			if !bytes.Equal(final, buffered) {
				t.Fatalf("final stream line differs from the buffered body:\nstream:   %s\nbuffered: %s", final, buffered)
			}
			golden := filepath.Join("testdata", "sweep", tc.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buffered, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(buffered, want) {
				t.Errorf("body drifted from golden (%d bytes now, %d in golden)\ngot:  %s\nwant: %s",
					len(buffered), len(want), buffered, want)
			}
		})
	}
}
