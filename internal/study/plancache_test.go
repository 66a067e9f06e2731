package study

import (
	"context"
	"testing"

	"wroofline/internal/plancache"
	"wroofline/internal/wfgen"
)

// shrinkExample returns the kind's Example spec cut down to test size.
func shrinkExample(t *testing.T, kind string) *Spec {
	t.Helper()
	spec, err := Example(kind)
	if err != nil {
		t.Fatal(err)
	}
	spec.Trials = 48
	if kind == "corpus" {
		spec.Count = 20
	}
	return spec
}

// TestPlanCacheDifferential is the study-level half of the differential
// wall: for every ensemble kind, a cache-off run, a cache-filling run, a
// cache-hit run, and a cache-hit run at a different worker x batch geometry
// must all render byte-identical tables.
func TestPlanCacheDifferential(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []string{"montecarlo", "failures", "corpus"} {
		t.Run(kind, func(t *testing.T) {
			spec := shrinkExample(t, kind)
			base, err := RunStreamCached(ctx, spec, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := renderTables(t, base)

			plans := plancache.New(256, 4)
			cold, err := RunCached(ctx, spec, plans)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderTables(t, cold); got != want {
				t.Errorf("cache-filling run diverged from cache-off run:\n--- off ---\n%s\n--- fill ---\n%s", want, got)
			}
			warm, err := RunCached(ctx, spec, plans)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderTables(t, warm); got != want {
				t.Errorf("cache-hit run diverged from cache-off run:\n--- off ---\n%s\n--- hit ---\n%s", want, got)
			}
			if st := plans.Stats(); st.Hits == 0 {
				t.Errorf("warm run recorded no plan-cache hits: %+v", st)
			}

			geo := *spec
			geo.Workers, geo.Batch = 3, 5
			got, err := RunCached(ctx, &geo, plans)
			if err != nil {
				t.Fatal(err)
			}
			if g := renderTables(t, got); g != want {
				t.Errorf("cache-hit run at workers=3 batch=5 diverged:\n--- off ---\n%s\n--- geo ---\n%s", want, g)
			}
		})
	}
}

// TestPlanCacheCorpusSeedVary pins the seed-vary win: with a CV==0 template
// the generator never consults its random stream, so scenario entries
// filled under one request seed serve every other — and the served tables
// are still byte-identical to a fresh, cache-off evaluation at the new
// seed.
func TestPlanCacheCorpusSeedVary(t *testing.T) {
	ctx := context.Background()
	mk := func(seed uint64) *Spec {
		return &Spec{
			Kind: "corpus", Machine: "perlmutter-numa", Count: 20, Seed: seed, Workers: 1,
			Template: &wfgen.Spec{Width: 5, Depth: 3, Payload: "512 MB"},
		}
	}
	plans := plancache.New(256, 4)
	if _, err := RunCached(ctx, mk(1), plans); err != nil {
		t.Fatal(err)
	}
	st := plans.Stats()
	// 20 scenarios cycle 5 families; CV==0 normalizes the scenario seed, so
	// the first scenario of each family misses and the rest hit. Each first
	// miss also misses the family's corpus shape once.
	if st.Misses != 5+5 || st.Hits != 15 || st.Entries != 5+5 {
		t.Fatalf("after seed-1 run: %+v; want 5 scenario and 5 shape misses and entries, 15 hits", st)
	}

	cached, err := RunCached(ctx, mk(999), plans)
	if err != nil {
		t.Fatal(err)
	}
	st2 := plans.Stats()
	if st2.Misses != st.Misses {
		t.Fatalf("seed-999 run missed (%d new misses); want 100%% cross-seed hits",
			st2.Misses-st.Misses)
	}
	fresh, err := RunStreamCached(ctx, mk(999), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderTables(t, cached), renderTables(t, fresh); got != want {
		t.Errorf("seed-999 tables served from seed-1 entries diverged from a fresh evaluation:\n--- fresh ---\n%s\n--- cached ---\n%s", want, got)
	}
}

// TestPlanCacheCorpusSeedSensitive is the converse guard: with CV > 0 the
// seed shapes the drawn work, so cross-seed requests must NOT share
// scenario entries.
func TestPlanCacheCorpusSeedSensitive(t *testing.T) {
	ctx := context.Background()
	mk := func(seed uint64) *Spec {
		return &Spec{
			Kind: "corpus", Machine: "perlmutter-numa", Count: 10, Seed: seed, Workers: 1,
			Template: &wfgen.Spec{Width: 5, Depth: 3, CV: 0.4, Payload: "512 MB"},
		}
	}
	plans := plancache.New(256, 4)
	if _, err := RunCached(ctx, mk(1), plans); err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := plans.Stats().Misses
	if _, err := RunCached(ctx, mk(2), plans); err != nil {
		t.Fatal(err)
	}
	if got := plans.Stats().Misses - missesAfterFirst; got != 10 {
		t.Fatalf("CV>0 cross-seed run took %d misses; want all 10 (seeds must stay significant)", got)
	}
}
