package plancache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"wroofline/internal/wfgen"
)

// key returns a distinct test key; CaseKey is as good a generator as any.
func key(i int) Key {
	return CaseKey(fmt.Sprintf("case-%d", i))
}

func TestGetPutBasics(t *testing.T) {
	c := New(8, 1)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(key(1), "one")
	v, ok := c.Get(key(1))
	if !ok || v.(string) != "one" {
		t.Fatalf("Get(1) = %v, %v; want one, true", v, ok)
	}
	// Re-putting an existing key keeps the incumbent value.
	c.Put(key(1), "other")
	if v, _ := c.Get(key(1)); v.(string) != "one" {
		t.Fatalf("re-Put overwrote incumbent: got %v", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v; want 2 hits, 1 miss, 0 evictions", st)
	}
	if st.Entries != 1 || st.Capacity != 8 {
		t.Fatalf("stats = %+v; want 1 entry, capacity 8", st)
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	c.Put(key(1), "x")
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("nil cache reported a hit")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v; want zeros", st)
	}
	if c.Len() != 0 || c.Capacity() != 0 {
		t.Fatal("nil cache reported occupancy")
	}
	c.Flush() // must not panic
}

// TestCountersAcrossEvictionAndFlush pins the counter wiring over the
// shared LRU: every entry an insert evicts is counted, and Flush empties
// the cache without resetting any counter.
func TestCountersAcrossEvictionAndFlush(t *testing.T) {
	c := New(2, 1)
	for i := 1; i <= 5; i++ {
		c.Put(key(i), i)
	}
	c.Get(key(5))
	c.Get(key(1))
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 3 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v; want 2 entries, 3 evictions, 1 hit, 1 miss", st)
	}
	c.Flush()
	after := c.Stats()
	if after.Entries != 0 {
		t.Fatalf("flush left %d entries", after.Entries)
	}
	if after.Hits != st.Hits || after.Misses != st.Misses || after.Evictions != st.Evictions {
		t.Fatalf("flush reset counters: %+v vs %+v", after, st)
	}
}

// TestConcurrentAccess hammers one cache from many goroutines; run under
// -race (the check.sh plancache gate does) it is the data-race proof.
func TestConcurrentAccess(t *testing.T) {
	c := New(64, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for op := 0; op < 2000; op++ {
				i := rng.Intn(200)
				if op%4 == 0 {
					c.Put(key(i), i)
				} else if v, ok := c.Get(key(i)); ok && v.(int) != i {
					t.Errorf("Get(%d) = %v", i, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > c.Capacity() {
		t.Fatalf("len %d over capacity %d", c.Len(), c.Capacity())
	}
}

func TestCaseKeyDistinct(t *testing.T) {
	if CaseKey("lcls-cori") == CaseKey("bgw-64") {
		t.Fatal("distinct cases share a key")
	}
	if CaseKey("lcls-cori") != CaseKey("lcls-cori") {
		t.Fatal("equal cases disagree")
	}
}

// TestScenarioKeySeedNormalization pins the CV==0 rule: constant-variation
// specs share one key across seeds (the generator never consults its random
// stream), while any positive CV makes the seed significant.
func TestScenarioKeySeedNormalization(t *testing.T) {
	flat := wfgen.Spec{Family: "diamond", Width: 5, Depth: 3, Payload: "512 MB"}
	a, b := flat, flat
	a.Seed, b.Seed = 1, 999
	if ScenarioKey(&a, "perlmutter") != ScenarioKey(&b, "perlmutter") {
		t.Fatal("CV==0 scenario keys differ across seeds")
	}
	noisy := flat
	noisy.CV = 0.4
	na, nb := noisy, noisy
	na.Seed, nb.Seed = 1, 999
	if ScenarioKey(&na, "perlmutter") == ScenarioKey(&nb, "perlmutter") {
		t.Fatal("CV>0 scenario keys collide across seeds")
	}
	if ScenarioKey(&a, "perlmutter") == ScenarioKey(&a, "frontier") {
		t.Fatal("scenario keys ignore the machine")
	}
	if ScenarioKey(&a, "perlmutter") == ScenarioKey(&na, "perlmutter") {
		t.Fatal("scenario keys ignore CV")
	}
}

// TestScenarioKeyNormalizedDefaults pins that spelled-out defaults and
// omitted fields address the same entry.
func TestScenarioKeyNormalizedDefaults(t *testing.T) {
	implicit := wfgen.Spec{Family: "chain"}
	explicit := wfgen.Spec{
		Family: "chain", Width: 4, Depth: 3, Partition: "cpu", NodesPerTask: 1,
		Flops: "200 GFLOP", Mem: "50 GB", Net: "1 GB", FS: "10 GB",
	}
	if ScenarioKey(&implicit, "perlmutter") != ScenarioKey(&explicit, "perlmutter") {
		t.Fatal("defaulted and spelled-out specs disagree")
	}
}

func TestModelKey(t *testing.T) {
	wf := []byte(`{"name":"w","partition":"cpu","tasks":[]}`)
	if ModelKey("perlmutter", "", wf) != ModelKey("perlmutter", "", wf) {
		t.Fatal("equal identities disagree")
	}
	if ModelKey("perlmutter", "", wf) == ModelKey("frontier", "", wf) {
		t.Fatal("model keys ignore the machine")
	}
	if ModelKey("perlmutter", "", wf) == ModelKey("perlmutter", "5 GB/s", wf) {
		t.Fatal("model keys ignore the external override")
	}
	if ModelKey("perlmutter", "", wf) == ModelKey("perlmutter", "", []byte(`{"name":"x"}`)) {
		t.Fatal("model keys ignore the workflow")
	}
}
