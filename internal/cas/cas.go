// Package cas is the content-addressed store shared by every cache tier:
// the serve layer's response cache and raw-body memo, the plan cache below
// it, and the singleflight tables of both the server and the cluster gate.
//
// Everything here is keyed by a SHA-256 content address. Because every
// evaluation in the toolkit is deterministic, equal keys imply equal
// values, which is what lets the LRU keep an incumbent on a repeated Put
// and lets a flight hand one result to every concurrent caller. SHA-256
// output is uniform, so both structures shard on the key's first byte:
// operations on distinct keys land on distinct, independently locked
// shards and never contend on a shared mutex.
package cas

import "crypto/sha256"

// Key is a content address: the SHA-256 of a kind tag plus a canonical
// identity.
type Key = [sha256.Size]byte

// shardCount normalizes a requested shard count: clamp to [1, 256] (the
// selector is one key byte), round up to a power of two, then halve until
// every shard owns at least two entries — a cache smaller than twice the
// shard count degenerates to fewer shards, and a tiny cache to exactly one,
// which preserves strict global LRU order for small configurations.
func shardCount(capacity, requested int) int {
	n := 1
	for n < requested && n < 256 {
		n <<= 1
	}
	for n > 1 && capacity/n < 2 {
		n >>= 1
	}
	return n
}
