package plancache

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

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
}

// TestCountersAcrossEvictionAndFlush pins the counter wiring over the
// shared LRU: every entry an insert evicts is counted, and the counters
// live on the Cache, so emptying the LRU underneath resets none of them.
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
	c.lru.Flush()
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

// keyPieces are the string fragments the injectivity property draws from:
// the separator and low length bytes the encoding must not confuse with
// content, plus real unit spellings.
var keyPieces = []string{"", "\x00", "\x01", "\x02", "\x05", "a", "a\x00", "\x00a", "GB", "1 GB", "cpu"}

func randKeyString(r *rand.Rand) string {
	s := ""
	for n := r.Intn(3); n > 0; n-- {
		s += keyPieces[r.Intn(len(keyPieces))]
	}
	return s
}

func randKeySpec(r *rand.Rand) wfgen.Spec {
	ints := []int{0, 1, 2, 3, 4, -1, 127, 128, 300}
	cvs := []float64{0, math.Copysign(0, -1), 0.4, 1e-9, 2}
	return wfgen.Spec{
		Family:       randKeyString(r),
		Seed:         []uint64{0, 1, 2, 1 << 40}[r.Intn(4)],
		Width:        ints[r.Intn(len(ints))],
		Depth:        ints[r.Intn(len(ints))],
		Partition:    randKeyString(r),
		NodesPerTask: ints[r.Intn(len(ints))],
		Flops:        randKeyString(r),
		Mem:          randKeyString(r),
		Net:          randKeyString(r),
		FS:           randKeyString(r),
		Payload:      randKeyString(r),
		CV:           cvs[r.Intn(len(cvs))],
	}
}

// keyPair is two scenario identities that are either equal in substance
// (respelled defaults, a CV=0 seed change) or differ in one field, across
// a field boundary, or everywhere.
type keyPair struct {
	A, B   wfgen.Spec
	MA, MB string
}

// keyStrings lists a spec's string fields in encoding order.
func keyStrings(s *wfgen.Spec) []*string {
	return []*string{&s.Family, &s.Partition, &s.Flops, &s.Mem, &s.Net, &s.FS, &s.Payload}
}

func (keyPair) Generate(r *rand.Rand, _ int) reflect.Value {
	a := randKeySpec(r)
	p := keyPair{A: a, B: a, MA: randKeyString(r)}
	p.MB = p.MA
	switch r.Intn(4) {
	case 0: // unrelated
		p.B, p.MB = randKeySpec(r), randKeyString(r)
	case 1: // one field replaced
		b := randKeySpec(r)
		fields := []func(){
			func() { p.MB = randKeyString(r) },
			func() { p.B.Family = b.Family },
			func() { p.B.Seed = b.Seed },
			func() { p.B.Width = b.Width },
			func() { p.B.Depth = b.Depth },
			func() { p.B.Partition = b.Partition },
			func() { p.B.NodesPerTask = b.NodesPerTask },
			func() { p.B.Flops = b.Flops },
			func() { p.B.Mem = b.Mem },
			func() { p.B.Net = b.Net },
			func() { p.B.FS = b.FS },
			func() { p.B.Payload = b.Payload },
			func() { p.B.CV = b.CV },
		}
		fields[r.Intn(len(fields))]()
	case 2: // a fragment moved across the boundary of two adjacent strings
		strs := append([]*string{&p.MB}, keyStrings(&p.B)...)
		i := r.Intn(len(strs) - 1)
		frag := keyPieces[1+r.Intn(len(keyPieces)-1)]
		if r.Intn(2) == 0 {
			*strs[i] += frag
			*strs[i+1] = strings.TrimPrefix(*strs[i+1], frag)
		} else {
			*strs[i] = strings.TrimSuffix(*strs[i], frag)
			*strs[i+1] = frag + *strs[i+1]
		}
	default: // the same identity respelled
		n := p.B.Normalized()
		p.B.Width, p.B.Depth, p.B.Partition, p.B.NodesPerTask = n.Width, n.Depth, n.Partition, n.NodesPerTask
		p.B.Flops, p.B.Mem, p.B.Net, p.B.FS = n.Flops, n.Mem, n.Net, n.FS
		if p.B.CV <= 0 {
			p.B.Seed = r.Uint64()
			p.B.CV = math.Copysign(0, float64(r.Intn(2)*2-1))
		}
	}
	return reflect.ValueOf(p)
}

// scenarioIdentity is what ScenarioKey promises to address: the machine
// plus the normalized spec, with the seed dropped at CV <= 0 and one
// spelling of zero CV.
func scenarioIdentity(s wfgen.Spec, machine string) (wfgen.Spec, string) {
	n := s.Normalized()
	if n.CV <= 0 {
		n.Seed = 0
	}
	if n.CV == 0 {
		n.CV = 0
	}
	return n, machine
}

// TestScenarioKeyInjective is the encoding's property wall: two scenarios
// share a key exactly when their identities are equal — distinct fields,
// including strings holding the separator or length bytes and fragments
// shifted across a field boundary, never collide, while respelled defaults
// and CV=0 seed changes always share.
func TestScenarioKeyInjective(t *testing.T) {
	same, differ := 0, 0
	cfg := &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(func(p keyPair) bool {
		ia, ma := scenarioIdentity(p.A, p.MA)
		ib, mb := scenarioIdentity(p.B, p.MB)
		equal := ia == ib && ma == mb
		if equal {
			same++
		} else {
			differ++
		}
		if (ScenarioKey(&p.A, p.MA) == ScenarioKey(&p.B, p.MB)) != equal {
			t.Errorf("identities equal=%v but keys disagree:\n%q %+v\n%q %+v", equal, p.MA, p.A, p.MB, p.B)
			return false
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
	if same < 500 || differ < 500 {
		t.Fatalf("property exercised %d equal and %d distinct pairs; want both >= 500", same, differ)
	}
}

// TestScenarioKeyCoversEveryField guards the hand-written encoding against
// a field added to wfgen.Spec later: it perturbs every field by reflection
// and requires the key to move, so a field ScenarioKey does not encode — or
// of a kind this test cannot perturb — fails here instead of letting two
// scenarios share a plan-cache entry.
func TestScenarioKeyCoversEveryField(t *testing.T) {
	base := wfgen.Spec{
		Family: "diamond", Seed: 5, Width: 6, Depth: 4, Partition: "gpu", NodesPerTask: 2,
		Flops: "300 GFLOP", Mem: "60 GB", Net: "2 GB", FS: "20 GB", Payload: "1 GB", CV: 0.3,
	}
	want := ScenarioKey(&base, "m")
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		spec := base
		v := reflect.ValueOf(&spec).Elem().Field(i)
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.25)
		default:
			t.Fatalf("wfgen.Spec.%s has kind %s: encode it in ScenarioKey and perturb it here", f.Name, v.Kind())
		}
		if ScenarioKey(&spec, "m") == want {
			t.Errorf("changing wfgen.Spec.%s leaves ScenarioKey unchanged: encode the field in ScenarioKey", f.Name)
		}
	}
}

// TestScenarioKeyAllocFloor pins the hand-built encoding: a scenario key is
// one pooled buffer and one hash, no allocation.
func TestScenarioKeyAllocFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries")
	}
	spec := benchSpec()
	if allocs := testing.AllocsPerRun(100, func() { ScenarioKey(spec, "perlmutter-numa") }); allocs != 0 {
		t.Errorf("ScenarioKey allocates %.1f objects/call, want 0", allocs)
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
