package study

import (
	"context"
	"testing"

	"wroofline/internal/machine"
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

// TestPlanCacheCorpusCVCachesOnlyShapes pins the cache rule for CV > 0:
// the seed shapes the drawn work, so a scenario's outcome is never cached
// (a fresh seed could not hit it) and only each family's compiled shape is.
// After a first request the cache holds exactly the 5 shape entries; a
// second request on a fresh seed reuses them with no miss, no new entry and
// no eviction, and renders what a cache-off evaluation renders.
func TestPlanCacheCorpusCVCachesOnlyShapes(t *testing.T) {
	ctx := context.Background()
	tmpl := wfgen.Spec{Width: 5, Depth: 3, CV: 0.4, Payload: "512 MB"}
	mk := func(seed uint64) *Spec {
		tp := tmpl
		return &Spec{Kind: "corpus", Machine: "perlmutter-numa", Count: 10, Seed: seed, Workers: 1, Template: &tp}
	}
	plans := plancache.New(256, 4)
	if _, err := RunCached(ctx, mk(1), plans); err != nil {
		t.Fatal(err)
	}
	st := plans.Stats()
	if st.Entries != 5 || st.Misses != 5 || st.Hits != 0 || st.Evictions != 0 {
		t.Fatalf("after seed-1 run: %+v; want the 5 family shapes as the only misses and entries", st)
	}

	cached, err := RunCached(ctx, mk(2), plans)
	if err != nil {
		t.Fatal(err)
	}
	st2 := plans.Stats()
	if st2.Misses != st.Misses || st2.Entries != st.Entries || st2.Evictions != 0 || st2.Hits != 5 {
		t.Fatalf("seed-2 run: %+v after %+v; want 5 shape hits and no miss, entry or eviction", st2, st)
	}
	fresh, err := RunStreamCached(ctx, mk(2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderTables(t, cached), renderTables(t, fresh); got != want {
		t.Errorf("seed-2 tables on cached shapes diverged from a cache-off evaluation:\n--- fresh ---\n%s\n--- cached ---\n%s", want, got)
	}

	// The entries are the family shapes, not scenario outcomes.
	m, err := machine.ByName("perlmutter-numa")
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range wfgen.Families() {
		s := tmpl
		s.Family = fam
		s.Partition = defaultPartition(m)
		if _, ok := plans.Get(plancache.ShapeKey(&s, m.Name)); !ok {
			t.Errorf("family %s: shape not cached", fam)
		}
	}
}
