package serve

import (
	"encoding/binary"
	"testing"
	"time"
)

// TestShardedSpread sanity-checks that sequential content keys actually
// land on every shard of the server's response cache (SHA-256 first bytes
// are uniform, and the cache selects shards by the first key byte).
func TestShardedSpread(t *testing.T) {
	s := New(Config{CacheEntries: 512, Shards: 16})
	_, shards := s.CacheGeometry()
	if shards != 16 {
		t.Fatalf("shards = %d, want 16", shards)
	}
	seen := map[byte]bool{}
	for i := uint64(0); i < 256; i++ {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], i)
		k := ContentKey("t", b[:])
		seen[k[0]&byte(shards-1)] = true
	}
	if len(seen) != shards {
		t.Errorf("256 keys touched %d/%d shards", len(seen), shards)
	}
}

// TestHitPathZeroAllocs asserts the serve-layer hot path — raw-key hash,
// raw memo lookup, cache hit, and the metrics observe — allocates nothing.
// This is the machinery between net/http and the cached bytes; the PR's
// acceptance floor is 0 allocs/op here.
func TestHitPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := New(Config{})
	body := []byte(`{"case":"example"}`)
	canonicalKey := ContentKey("model", body)
	rawKey := ContentKey("raw-model", body)
	s.rawKeys.Put(rawKey, canonicalKey)
	s.cache.Put(canonicalKey, Response{Body: []byte("resp"), ContentType: "application/json", clen: "4"})
	st := s.metrics.endpoint("model")
	allocs := testing.AllocsPerRun(1000, func() {
		rk := ContentKey("raw-model", body)
		key, ok := s.rawKeys.Get(rk)
		if !ok {
			t.Fatal("raw memo miss")
		}
		if _, ok := s.cache.Get(key); !ok {
			t.Fatal("cache miss")
		}
		s.metrics.cacheHits.Add(1)
		st.observe(200, 42*time.Microsecond)
	})
	if allocs != 0 {
		t.Errorf("hit path allocates %.1f per op, want 0", allocs)
	}
}
