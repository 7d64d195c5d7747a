// The shared cache over HTTP: a Server exposing any Store at
// GET/PUT /v1/entry/<version>/<kind>/<scenario>, a Client implementing
// Store against such a server, and a Tiered composition layering a local
// cache in front of a shared one. Payloads are digest-verified on both
// ends of both verbs — the digest header binds the payload to its full
// key, so neither a torn transfer nor a misrouted entry is ever trusted.

package cache

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/httplimit"
)

// DigestHeader carries the lowercase hex SHA-256 over key bytes followed
// by payload bytes — the same digest the segment format stores per
// record.
const DigestHeader = "X-Eba-Digest"

const entryPrefix = "/v1/entry/"

// Key assembles the canonical cache key of a payload: the stack version
// digest, the payload kind ("run" for sweep outcomes, "idx" for the
// checker's stripe indexes), and the scenario (for "idx", stripe) digest,
// slash-joined. The components are validated by the HTTP layer, so a key
// built here routes cleanly.
func Key(versionDigest, kind, scenarioDigest string) string {
	return versionDigest + "/" + kind + "/" + scenarioDigest
}

// keyFromPath parses and validates an entry path into its key.
func keyFromPath(p string) (string, bool) {
	rest, ok := strings.CutPrefix(p, entryPrefix)
	if !ok {
		return "", false
	}
	parts := strings.Split(rest, "/")
	if len(parts) != 3 || !isHexToken(parts[0]) || !isKindToken(parts[1]) || !isHexToken(parts[2]) {
		return "", false
	}
	return parts[0] + "/" + parts[1] + "/" + parts[2], true
}

func isHexToken(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func isKindToken(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return true
}

// Server exposes a Store over HTTP. Mount it on a mux (optionally behind
// http.StripPrefix); it answers GET and PUT under /v1/entry/.
type Server struct {
	store Store
}

// NewServer returns a Server over the store.
func NewServer(store Store) *Server { return &Server{store: store} }

// Store returns the served store (the coordinator reports its stats).
func (s *Server) Store() Store { return s.store }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key, ok := keyFromPath(r.URL.Path)
	if !ok {
		http.Error(w, "no such cache path", http.StatusNotFound)
		return
	}
	switch r.Method {
	case http.MethodGet:
		val, ok := s.store.Get(key)
		if !ok {
			http.Error(w, "cache miss", http.StatusNotFound)
			return
		}
		sum := recordSum(key, val)
		w.Header().Set(DigestHeader, hex.EncodeToString(sum[:]))
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(val)
	case http.MethodPut:
		body, err := httplimit.ReadBody(w, r, maxValLen)
		if err != nil {
			http.Error(w, fmt.Sprintf("reading payload: %v", err), http.StatusBadRequest)
			return
		}
		// The digest is mandatory and verified before the store sees the
		// payload: a torn upload or a client disagreeing about the key
		// never lands in the cache.
		want := r.Header.Get(DigestHeader)
		if want == "" {
			http.Error(w, DigestHeader+" header required", http.StatusBadRequest)
			return
		}
		sum := recordSum(key, body)
		if !strings.EqualFold(want, hex.EncodeToString(sum[:])) {
			http.Error(w, "payload digest mismatch", http.StatusBadRequest)
			return
		}
		if err := s.store.Put(key, body); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "GET or PUT only", http.StatusMethodNotAllowed)
	}
}

// Client implements Store against a cache Server. Transport failures and
// verification failures degrade to misses on Get (the caller recomputes)
// and to errors on Put (the caller treats caching as best-effort).
type Client struct {
	base  string
	hc    *http.Client
	stats counters
}

var _ Store = (*Client)(nil)

// NewClient returns a Client for the server at baseURL (the prefix the
// Server is mounted under, e.g. "http://coord:8123/cache").
func NewClient(baseURL string) *Client {
	return &Client{
		base: strings.TrimRight(baseURL, "/"),
		hc:   &http.Client{Timeout: 60 * time.Second},
	}
}

func (c *Client) url(key string) string { return c.base + entryPrefix + key }

// Get fetches and digest-verifies one entry; any failure is a miss.
func (c *Client) Get(key string) ([]byte, bool) {
	resp, err := c.hc.Get(c.url(key))
	if err != nil {
		c.stats.misses.Add(1)
		return nil, false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		c.stats.misses.Add(1)
		return nil, false
	}
	val, err := io.ReadAll(io.LimitReader(resp.Body, maxValLen+1))
	if err != nil || len(val) > maxValLen {
		c.stats.rejects.Add(1)
		c.stats.misses.Add(1)
		return nil, false
	}
	sum := recordSum(key, val)
	if !strings.EqualFold(resp.Header.Get(DigestHeader), hex.EncodeToString(sum[:])) {
		c.stats.rejects.Add(1)
		c.stats.misses.Add(1)
		return nil, false
	}
	c.stats.hits.Add(1)
	c.stats.bytesServed.Add(int64(len(val)))
	return val, true
}

// Put uploads one entry with its digest.
func (c *Client) Put(key string, val []byte) error {
	req, err := http.NewRequest(http.MethodPut, c.url(key), bytes.NewReader(val))
	if err != nil {
		return fmt.Errorf("cache: building upload: %w", err)
	}
	sum := recordSum(key, val)
	req.Header.Set(DigestHeader, hex.EncodeToString(sum[:]))
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("cache: uploading %s: %w", key, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cache: uploading %s: server says %s: %s", key, resp.Status, strings.TrimSpace(string(msg)))
	}
	c.stats.puts.Add(1)
	c.stats.bytesWritten.Add(int64(len(val)))
	return nil
}

// Stats snapshots the client's traffic counters.
func (c *Client) Stats() Stats { return c.stats.snapshot() }

// Tiered layers a local store in front of a shared one: Get probes the
// local tier first and back-fills it on a shared hit; Put writes through
// to both. Its Stats count the composition's own traffic (one Get is one
// hit or one miss, whichever tier served it).
type Tiered struct {
	local, remote Store
	stats         counters
}

var _ Store = (*Tiered)(nil)

// NewTiered composes a local and a shared store.
func NewTiered(local, remote Store) *Tiered {
	return &Tiered{local: local, remote: remote}
}

// Get probes local then shared, back-filling the local tier on a shared
// hit.
func (t *Tiered) Get(key string) ([]byte, bool) {
	if val, ok := t.local.Get(key); ok {
		t.stats.hits.Add(1)
		t.stats.bytesServed.Add(int64(len(val)))
		return val, true
	}
	if val, ok := t.remote.Get(key); ok {
		// Back-fill is best-effort: a full local disk must not turn a
		// shared hit into a failure.
		t.local.Put(key, val)
		t.stats.hits.Add(1)
		t.stats.bytesServed.Add(int64(len(val)))
		return val, true
	}
	t.stats.misses.Add(1)
	return nil, false
}

// Put writes through to both tiers; the first error is returned after
// both were attempted.
func (t *Tiered) Put(key string, val []byte) error {
	err1 := t.local.Put(key, val)
	err2 := t.remote.Put(key, val)
	t.stats.puts.Add(1)
	t.stats.bytesWritten.Add(int64(len(val)))
	if err1 != nil {
		return err1
	}
	return err2
}

// Stats snapshots the composition's traffic counters.
func (t *Tiered) Stats() Stats { return t.stats.snapshot() }
