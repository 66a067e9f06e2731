package cas

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// testKey derives a deterministic content key from an integer.
func testKey(i uint64) Key {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], i)
	return sha256.Sum256(b[:])
}

// keyOf derives a deterministic content key from a string.
func keyOf(s string) Key {
	return sha256.Sum256([]byte(s))
}

// TestShardCountNormalization pins the shard-geometry rules: power of two,
// clamped to [1, 256], degraded until every shard holds at least two
// entries, and exactly one shard for tiny caches (strict global LRU).
func TestShardCountNormalization(t *testing.T) {
	cases := []struct {
		capacity, requested, want int
	}{
		{512, 16, 16},
		{512, 12, 16},    // round up to a power of two
		{512, 1000, 256}, // clamp to one key byte
		{512, 0, 1},
		{32, 16, 16},
		{16, 16, 8}, // halve until >= 2 entries per shard
		{2, 16, 1},  // tiny cache: one shard, exact LRU
		{1, 16, 1},
		{3, 2, 1},
		{4, 2, 2},
	}
	for _, tc := range cases {
		if got := shardCount(tc.capacity, tc.requested); got != tc.want {
			t.Errorf("shardCount(%d, %d) = %d, want %d", tc.capacity, tc.requested, got, tc.want)
		}
	}
}

// TestShardedCapacityPreserved checks that the per-shard capacities sum to
// exactly the configured total for a spread of geometries.
func TestShardedCapacityPreserved(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 5, 16, 17, 100, 512, 513} {
		for _, shards := range []int{1, 2, 4, 16, 64, 256} {
			c := NewLRU[string](capacity, shards)
			if got := c.Capacity(); got != capacity {
				t.Errorf("capacity(%d, %d shards): shards sum to %d", capacity, shards, got)
			}
		}
	}
}

// TestShardedProperties drives three testing/quick invariants: total
// entries never exceed configured capacity, the same key always maps to the
// same shard, and put-then-get round-trips the value.
func TestShardedProperties(t *testing.T) {
	t.Run("entries never exceed capacity", func(t *testing.T) {
		prop := func(capRaw uint8, shardsRaw uint8, ops []uint16) bool {
			capacity := int(capRaw%64) + 1
			c := NewLRU[string](capacity, int(shardsRaw%32)+1)
			for _, op := range ops {
				c.Put(testKey(uint64(op%256)), string(rune(op)))
				if c.Len() > capacity {
					return false
				}
			}
			return c.Len() <= capacity
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("same key maps to same shard", func(t *testing.T) {
		c := NewLRU[string](512, 16)
		prop := func(i uint64) bool {
			k := testKey(i)
			return c.shard(k) == c.shard(k) && c.shard(k) == &c.shards[k[0]&c.mask]
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("put then get round-trips", func(t *testing.T) {
		type val struct{ body, ctype string }
		c := NewLRU[val](512, 16)
		prop := func(i uint64, body []byte) bool {
			k := testKey(i)
			c.Put(k, val{body: string(body), ctype: "t"})
			got, ok := c.Get(k)
			return ok && got.body == string(body) && got.ctype == "t"
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})
}

// TestShardedStress hammers Get/Put/Flush/Len across every shard from many
// goroutines; run under -race this is the concurrency proof for the sharded
// cache. The capacity invariant is re-checked after the storm.
func TestShardedStress(t *testing.T) {
	const (
		capacity   = 128
		goroutines = 16
		keys       = 512
	)
	c := NewLRU[string](capacity, 16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := testKey(uint64(rng.Intn(keys)))
				switch i % 8 {
				case 0:
					c.Put(k, fmt.Sprintf("v%d", g))
				case 5:
					if c.Len() > capacity {
						t.Errorf("len %d exceeds capacity %d", c.Len(), capacity)
						return
					}
				case 7:
					if g == 0 && i%1024 == 7 {
						c.Flush()
					}
				default:
					c.Get(k)
				}
			}
		}(g)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if c.Len() > capacity {
		t.Errorf("post-stress len %d exceeds capacity %d", c.Len(), capacity)
	}
}

// The strict-LRU tests pin shards to 1: a single shard is exact global LRU,
// which is also what shardCount degenerates to for tiny capacities.
func TestLRUEvictsOldest(t *testing.T) {
	c := NewLRU[string](2, 1)
	keys := make([]Key, 3)
	for i := range keys {
		keys[i] = keyOf(string(rune('a' + i)))
		c.Put(keys[i], string(rune('a'+i)))
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, ok := c.Get(keys[0]); ok {
		t.Error("oldest entry should have been evicted")
	}
	for _, k := range keys[1:] {
		if _, ok := c.Get(k); !ok {
			t.Errorf("key %x missing", k[:4])
		}
	}
}

func TestLRUGetRefreshesRecency(t *testing.T) {
	c := NewLRU[string](2, 1)
	a, b, x := keyOf("a"), keyOf("b"), keyOf("x")
	c.Put(a, "a")
	c.Put(b, "b")
	c.Get(a) // a is now most recent; x should evict b
	c.Put(x, "x")
	if _, ok := c.Get(a); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := c.Get(b); ok {
		t.Error("least recently used entry survived")
	}
}

func TestLRUFlush(t *testing.T) {
	c := NewLRU[string](4, 1)
	c.Put(keyOf("a"), "a")
	c.Flush()
	if c.Len() != 0 {
		t.Errorf("len after flush = %d", c.Len())
	}
	if _, ok := c.Get(keyOf("a")); ok {
		t.Error("flushed entry still retrievable")
	}
}

// TestStrictLRUSingleShard pins the recency semantics: with one shard the
// cache is a strict global LRU, so a refreshed key survives an eviction
// that claims its colder sibling.
func TestStrictLRUSingleShard(t *testing.T) {
	c := NewLRU[int](4, 1)
	for i := 1; i <= 4; i++ {
		if n := c.Put(testKey(uint64(i)), i); n != 0 {
			t.Fatalf("Put(%d) into a non-full cache evicted %d", i, n)
		}
	}
	if _, ok := c.Get(testKey(1)); !ok { // refresh 1; 2 is now coldest
		t.Fatal("key 1 missing before eviction")
	}
	if n := c.Put(testKey(5), 5); n != 1 {
		t.Fatalf("Put(5) evicted %d entries; want 1", n)
	}
	if _, ok := c.Get(testKey(2)); ok {
		t.Fatal("key 2 should have been evicted as LRU")
	}
	for _, i := range []uint64{1, 3, 4, 5} {
		if _, ok := c.Get(testKey(i)); !ok {
			t.Fatalf("key %d evicted; want it retained", i)
		}
	}
}

// TestEvictionCapacityProperty drives random put/get sequences through
// random cache geometries and checks the structural invariants the LRU
// must hold: occupancy never exceeds capacity, the items index and the
// recency rings agree, a present key round-trips its value, and the
// reported evictions balance insertions against retained entries.
func TestEvictionCapacityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		capacity := 1 + rng.Intn(40)
		shards := 1 << rng.Intn(5)
		c := NewLRU[int](capacity, shards)
		if got := c.Capacity(); got != capacity {
			t.Fatalf("capacity = %d; want %d", got, capacity)
		}
		inserted, evicted := 0, 0
		for op := 0; op < 400; op++ {
			i := rng.Intn(60)
			k := testKey(uint64(i))
			if rng.Intn(3) == 0 {
				if v, ok := c.Get(k); ok && v != i {
					t.Fatalf("trial %d: Get(%d) returned %v", trial, i, v)
				}
				continue
			}
			// A Put only inserts when the key is absent (an evicted key
			// re-Put later is a fresh insertion); probe first so the
			// eviction balance below can count true insertions.
			if _, present := c.Get(k); !present {
				inserted++
			}
			evicted += c.Put(k, i)
		}
		entries := c.Len()
		if entries > capacity {
			t.Fatalf("trial %d: %d entries over capacity %d", trial, entries, capacity)
		}
		if want := inserted - entries; evicted != want {
			t.Fatalf("trial %d: evictions = %d; want inserted(%d) - retained(%d) = %d",
				trial, evicted, inserted, entries, want)
		}
		// Per-shard: index and ring must agree in size and membership.
		for si := range c.shards {
			sh := &c.shards[si]
			n := 0
			for e := sh.head.next; e != &sh.head; e = e.next {
				if sh.items[e.key] != e {
					t.Fatalf("trial %d shard %d: ring entry not in index", trial, si)
				}
				n++
			}
			if n != len(sh.items) {
				t.Fatalf("trial %d shard %d: ring %d entries, index %d", trial, si, n, len(sh.items))
			}
			if n > sh.cap {
				t.Fatalf("trial %d shard %d: %d entries over shard cap %d", trial, si, n, sh.cap)
			}
		}
		c.Flush()
		if c.Len() != 0 {
			t.Fatalf("trial %d: flush left %d entries", trial, c.Len())
		}
	}
}

// TestLRUAllocs is the allocation floor of the shared cache: a hit
// allocates nothing, and an insert that evicts allocates exactly one object
// (its ring entry) — the evicted slot is unlinked, not copied or boxed.
func TestLRUAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const capacity = 64
	c := NewLRU[[]byte](capacity, 1)
	val := []byte("resp")
	keys := make([]Key, 4*capacity)
	for i := range keys {
		keys[i] = testKey(uint64(i))
	}
	for _, k := range keys[:capacity] {
		c.Put(k, val)
	}
	hot := keys[0]
	if hits := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Get(hot); !ok {
			t.Fatal("miss on warm key")
		}
	}); hits != 0 {
		t.Errorf("Get hit allocates %.1f per op, want 0", hits)
	}
	// Cycling 4x capacity distinct keys through a full cache makes every
	// Put a fresh insert that evicts the least recently used entry.
	next := capacity
	if puts := testing.AllocsPerRun(1000, func() {
		if n := c.Put(keys[next%len(keys)], val); n != 1 {
			t.Fatalf("Put evicted %d entries, want 1", n)
		}
		next++
	}); puts != 1 {
		t.Errorf("evicting Put allocates %.1f per op, want 1", puts)
	}
}
