package serve

import (
	"encoding/hex"
	"fmt"

	"wroofline/internal/study"
)

// The routing seam for cluster mode: wfgate computes the same canonical
// content address a replica would, so requests for one spec always land on
// one owner replica, and the internal peer cache-fill API addresses cached
// responses by the hex form of that key.

// PeerOwnerHeader names the request header wfgate sets when it routes a
// request away from the key's primary owner (failover or ring change): the
// value is the owner's base URL, and the handling replica may ask it for a
// cache fill before evaluating locally. Honoured only for URLs in the
// server's Peers allowlist.
const PeerOwnerHeader = "X-Peer-Owner"

// PeerFillPath is the internal peer cache-fill route prefix; the hex
// content address is appended.
const PeerFillPath = "/peer/v1/fill/"

// ModelKey canonicalizes a /v1/model request body and returns its content
// address — the same key the serving path caches under.
func ModelKey(body []byte) (Key, error) {
	_, canonical, err := canonicalModelRequest(body)
	if err != nil {
		return Key{}, err
	}
	return ContentKey("model", canonical), nil
}

// SweepKey canonicalizes a /v1/sweep spec and returns its content address.
func SweepKey(body []byte) (Key, error) {
	spec, err := study.ParseSpec(body)
	if err != nil {
		return Key{}, err
	}
	canonical, err := spec.Canonical()
	if err != nil {
		return Key{}, err
	}
	return ContentKey("sweep", canonical), nil
}

// FigureKey returns the content address of a /v1/figures/{name} response.
func FigureKey(name string) Key {
	return contentKey("figure", name)
}

// ParseHexKey parses the hex wire form back into a content address.
func ParseHexKey(s string) (Key, error) {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return Key{}, fmt.Errorf("content key: %v", err)
	}
	if len(raw) != len(Key{}) {
		return Key{}, fmt.Errorf("content key: %d hex bytes, want %d", len(raw), len(Key{}))
	}
	return Key(raw), nil
}
