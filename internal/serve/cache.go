package serve

import (
	"crypto/sha256"
	"strconv"
	"sync"

	"wroofline/internal/cas"
)

// Key is a content address: the SHA-256 of an endpoint tag plus the
// canonicalized request. Because every evaluation in the toolkit is
// deterministic (internal/sweep seeds per trial, internal/plot renders pure
// functions of the model), equal keys imply byte-equal responses — a cached
// body is indistinguishable from a recomputed one.
type Key = cas.Key

// keyScratch recycles the concatenation buffer behind ContentKey so the
// hot path hashes without allocating.
type keyScratch struct{ buf []byte }

// keyPool holds keyScratch buffers across requests.
var keyPool = sync.Pool{New: func() any { return &keyScratch{buf: make([]byte, 0, 4096)} }}

// ContentKey hashes an endpoint kind and a canonical request body into a
// cache key. The kind prefix keeps, say, a sweep spec and a model spec with
// identical bytes from colliding.
func ContentKey(kind string, canonical []byte) Key {
	return contentKey(kind, canonical)
}

// contentKey is ContentKey over either payload type, so hot GET paths hash
// a string without converting it. The digest is SHA-256 over
// kind || 0x00 || canonical, assembled in a pooled buffer and hashed with
// the one-shot Sum256 — zero heap allocations at steady state.
func contentKey[T string | []byte](kind string, canonical T) Key {
	s := keyPool.Get().(*keyScratch)
	b := append(s.buf[:0], kind...)
	b = append(b, 0)
	b = append(b, canonical...)
	k := Key(sha256.Sum256(b))
	s.buf = b[:0]
	keyPool.Put(s)
	return k
}

// Response is a fully rendered response body, ready to serve.
type Response struct {
	// Body is the exact byte payload; ContentType its MIME type.
	Body        []byte
	ContentType string
	// ETag is the strong validator derived from the body hash.
	ETag string

	// clen is len(Body) pre-rendered as a decimal string, and the *Vals
	// slices are the single-element header values for the response's fixed
	// headers — all stamped once at evaluation time so a cache hit writes
	// its headers into the response map without allocating.
	clen     string
	ctVals   []string
	etagVals []string
	clenVals []string
}

// stampHeaders precomputes the Content-Length string and the header value
// slices. Called once per evaluation; every later hit reuses them.
func (r *Response) stampHeaders() {
	r.clen = strconv.Itoa(len(r.Body))
	r.ctVals = []string{r.ContentType}
	r.etagVals = []string{r.ETag}
	r.clenVals = []string{r.clen}
}
