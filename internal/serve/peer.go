package serve

import (
	"context"
	"encoding/hex"
	"io"
	"net/http"
	"strings"
)

// Peer cache-fill: in cluster mode each content address has one owner
// replica (wfgate's consistent hash). When a request lands elsewhere —
// failover, or the ring shifted — the handling replica can fetch the
// owner's already-rendered bytes instead of re-evaluating, keeping the
// cluster at one evaluation per key even while ownership moves. The
// protocol is one internal GET per fill, keyed by hex content address;
// every response carries the same strong validator wherever it was
// rendered, because the bytes are deterministic.

// maxPeerFillBytes caps one inbound fill body. Rendered responses are
// bounded (tables and SVGs, not raw ensembles), so the cap only guards
// against a misconfigured peer address pointing at something that streams.
const maxPeerFillBytes = 64 << 20

// handlePeerFill serves a cached response by content address: 200 with the
// rendered body when this replica holds the key, 404 otherwise. It never
// evaluates — the caller falls back to its own evaluation path on a miss.
func (s *Server) handlePeerFill(w http.ResponseWriter, r *http.Request) {
	key, err := ParseHexKey(r.PathValue("key"))
	if err != nil {
		fail(w, badRequest("peer fill: %v", err))
		return
	}
	resp, ok := s.cache.Get(key)
	if !ok {
		fail(w, &httpError{status: http.StatusNotFound,
			msg: "no cached response for " + r.PathValue("key")})
		return
	}
	respond(w, r, resp, "hit")
}

// peerFill tries to satisfy a miss from the key's owner replica, named by
// the request's X-Peer-Owner header. The header is only honoured when it
// names a configured peer (allowlist — a public client cannot aim the
// server at arbitrary origins). Fills are best-effort: any error, timeout,
// or non-200 reports false and the caller evaluates locally.
func (s *Server) peerFill(r *http.Request, key Key) (Response, bool) {
	owner := strings.TrimSuffix(r.Header.Get(PeerOwnerHeader), "/")
	if owner == "" || !s.peerAllowed[owner] {
		return Response{}, false
	}
	ctx, cancel := context.WithTimeout(context.Background(), peerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner+PeerFillPath+hex.EncodeToString(key[:]), nil)
	if err != nil {
		return Response{}, false
	}
	hresp, err := s.peerClient.Do(req)
	if err != nil {
		return Response{}, false
	}
	defer func() {
		io.Copy(io.Discard, hresp.Body)
		hresp.Body.Close()
	}()
	if hresp.StatusCode != http.StatusOK {
		return Response{}, false
	}
	body, err := io.ReadAll(io.LimitReader(hresp.Body, maxPeerFillBytes+1))
	if err != nil || len(body) > maxPeerFillBytes {
		return Response{}, false
	}
	resp := Response{
		Body:        body,
		ContentType: hresp.Header.Get("Content-Type"),
		ETag:        hresp.Header.Get("ETag"),
	}
	resp.stampHeaders()
	s.metrics.peerFills.Add(1)
	s.cache.Put(key, resp)
	return resp, true
}
