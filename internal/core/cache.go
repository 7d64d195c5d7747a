// The result cache's core face: content-addressed keys for runs and the
// CachingExecutor that consults a ResultCache before executing.
//
// Keys are "<version>/<kind>/<scenario>": the version digest pins the
// stack's semantic identity (exchange and action protocol by registered
// name, n, t, horizon) together with a build fingerprint, the kind
// separates sweep outcomes ("run") from the episteme checker's whole
// stripe indexes ("idx"), and the scenario digest pins the (pattern,
// inits) input (for "idx", the stripe and enumeration parameters).
// Any change to protocol code, configuration, or input lands on a
// different key and misses — the differential tests pin this. Payloads
// are digest-verified by the store (internal/cache); on top of that the
// executor validates the decoded payload against the scenario it is
// answering, so a corrupt or misfiled entry degrades to a recomputation,
// never to a wrong result. Spec checking happens OUTSIDE the cache: the
// payload carries the per-round actions, so spec.CheckRun judges cache
// hits exactly as it judges fresh runs, and spec options stay out of the
// key.

package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/wire"
)

// ResultCache is the store the runner consults: Get misses on any
// failure (the caller recomputes), Put is best-effort persistence and
// keeps no reference to val once it returns.
// internal/cache's Cache implements it; tests fake it.
type ResultCache interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte) error
}

// cacheSchema is folded into every version digest; bump it when the
// payload encoding changes incompatibly.
const cacheSchema = "eba-cache-v1"

// Cache payload kinds.
const (
	// CacheKindRun marks a sweep outcome (a CachedRun).
	CacheKindRun = "run"
	// CacheKindIndex marks a whole serialized episteme shard index: the
	// digest slot fingerprints the stripe parameters instead of a
	// scenario, and the payload is the WriteShardIndex serialization. A
	// hit skips the stripe's enumeration entirely.
	CacheKindIndex = "idx"
)

// VersionDigest fingerprints the stack's semantic identity for
// cache-key derivation: the payload schema, the exchange and action
// protocol by their registered names, n, t, the execution horizon, and
// the build fingerprint (internal/cache.Fingerprint or a caller-chosen
// tag). Two stacks share a digest exactly when a scenario must produce
// byte-identical outcomes under both.
func (s Stack) VersionDigest(fingerprint string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|ex=%s|act=%s|n=%d|t=%d|h=%d|bin=%s",
		cacheSchema, s.Exchange.Name(), s.Action.Name(), s.N, s.T, s.Horizon(), fingerprint)
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// scenarioDigest fingerprints one (pattern text, inits) input. Quotient
// weights are deliberately excluded: the run's outcome does not depend
// on how many sweep scenarios the representative stands for, so
// quotiented and plain sweeps share entries.
func scenarioDigest(text []byte, inits []model.Value) string {
	pre := make([]byte, 0, len(text)+1+2*len(inits))
	pre = append(pre, text...)
	pre = append(pre, '|')
	for _, v := range inits {
		pre = strconv.AppendInt(pre, int64(v), 10)
		pre = append(pre, ',')
	}
	sum := sha256.Sum256(pre)
	return hex.EncodeToString(sum[:16])
}

// CacheKey assembles the full cache key, in internal/cache.Key's format.
func CacheKey(versionDigest, kind, scenarioDigest string) string {
	return versionDigest + "/" + kind + "/" + scenarioDigest
}

// CachedRun is the cache payload of one completed run: the scenario
// restated (so a misfiled entry is detected on read), the observable
// outcome, and the per-round actions spec checking needs. States are
// never cached.
type CachedRun struct {
	Pattern   string       `json:"pattern"`
	Inits     []int        `json:"inits"`
	Decisions []int        `json:"decisions"`
	Rounds    []int        `json:"rounds"`
	Actions   [][]int      `json:"actions"`
	Stats     OutcomeStats `json:"stats"`
}

// NewCachedRun encodes a completed run. The second argument must be
// false — a CachedRun carries no state keys — and exists only because
// benchmark/, frozen outside benchmark-kind PRs, passes it (ROADMAP).
func NewCachedRun(res *engine.Result, withStates bool) (*CachedRun, error) {
	if withStates {
		return nil, errors.New("core: a CachedRun carries no state keys")
	}
	cr := new(CachedRun)
	if err := cr.Encode(res); err != nil {
		return nil, err
	}
	return cr, nil
}

// Encode is NewCachedRun in place, for callers that fill a slice of
// ledgers (a shard index's runs) without a heap object per run.
func (cr *CachedRun) Encode(res *engine.Result) error {
	text, err := res.Pattern.MarshalText()
	if err != nil {
		return fmt.Errorf("core: encoding pattern for cache payload: %w", err)
	}
	cr.encode(res, string(text))
	return nil
}

// encode is Encode given the pattern's text.
func (cr *CachedRun) encode(res *engine.Result, patternText string) {
	*cr = CachedRun{
		Pattern:   patternText,
		Inits:     make([]int, res.N),
		Decisions: make([]int, res.N),
		Rounds:    make([]int, res.N),
		Actions:   make([][]int, len(res.Actions)),
		Stats: OutcomeStats{
			MessagesSent:      res.Stats.MessagesSent,
			MessagesDelivered: res.Stats.MessagesDelivered,
			BitsSent:          res.Stats.BitsSent,
			BitsDelivered:     res.Stats.BitsDelivered,
		},
	}
	for i := 0; i < res.N; i++ {
		cr.Inits[i] = int(res.Inits[i])
		cr.Decisions[i] = int(res.Decision[i])
		cr.Rounds[i] = res.DecisionRound[i]
	}
	for m, acts := range res.Actions {
		row := make([]int, len(acts))
		for i, a := range acts {
			row[i] = int(a)
		}
		cr.Actions[m] = row
	}
}

// AppendJSON appends cr's canonical encoding: exactly what json.Marshal
// writes for it, which is the run cache's payload and one element of a
// shard index's "runs".
func (cr *CachedRun) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"pattern":`...)
	dst = wire.AppendString(dst, cr.Pattern)
	dst = append(dst, `,"inits":`...)
	dst = wire.AppendInts(dst, cr.Inits)
	dst = append(dst, `,"decisions":`...)
	dst = wire.AppendInts(dst, cr.Decisions)
	dst = append(dst, `,"rounds":`...)
	dst = wire.AppendInts(dst, cr.Rounds)
	dst = append(dst, `,"actions":`...)
	dst = wire.AppendList(dst, cr.Actions, func(dst []byte, row *[]int) []byte { return wire.AppendInts(dst, *row) })
	dst = append(dst, `,"stats":{"sent":`...)
	dst = strconv.AppendInt(dst, int64(cr.Stats.MessagesSent), 10)
	dst = append(dst, `,"delivered":`...)
	dst = strconv.AppendInt(dst, int64(cr.Stats.MessagesDelivered), 10)
	dst = append(dst, `,"bitsSent":`...)
	dst = strconv.AppendInt(dst, cr.Stats.BitsSent, 10)
	dst = append(dst, `,"bitsDelivered":`...)
	dst = strconv.AppendInt(dst, cr.Stats.BitsDelivered, 10)
	return append(dst, '}', '}')
}

// Parse reads one CachedRun object from p, the superset of AppendJSON's
// form the wire parser accepts; the caller checks the canonical form by
// re-encoding.
func (cr *CachedRun) Parse(p *wire.Parser) {
	var intBuf [64]int
	var rowBuf [16][]int
	scratch, rows := intBuf[:0], rowBuf[:0]
	p.Lit(`{"pattern":`)
	pattern := p.Str()
	p.Lit(`,"inits":`)
	cr.Inits, scratch = wire.Exact(p, scratch)
	p.Lit(`,"decisions":`)
	cr.Decisions, scratch = wire.Exact(p, scratch)
	p.Lit(`,"rounds":`)
	cr.Rounds, scratch = wire.Exact(p, scratch)
	p.Lit(`,"actions":`)
	cr.Actions = nil
	if p.Elems(func() {
		var row []int
		row, scratch = wire.Exact(p, scratch)
		rows = append(rows, row)
	}) {
		cr.Actions = append(make([][]int, 0, len(rows)), rows...)
	}
	p.Lit(`,"stats":{"sent":`)
	cr.Stats.MessagesSent = int(p.Int64())
	p.Lit(`,"delivered":`)
	cr.Stats.MessagesDelivered = int(p.Int64())
	p.Lit(`,"bitsSent":`)
	cr.Stats.BitsSent = p.Int64()
	p.Lit(`,"bitsDelivered":`)
	cr.Stats.BitsDelivered = p.Int64()
	p.Lit("}}")
	cr.Pattern = string(pattern)
}

// cachedRunScratch sizes the stack buffer a payload is encoded into:
// large enough for every run of the stacks the tree checks, and a larger
// one only costs a heap buffer.
const cachedRunScratch = 512

// DecodeJSON parses a cache payload and accepts it only if it is exactly
// AppendJSON's encoding of what it holds.
func (cr *CachedRun) DecodeJSON(payload []byte) bool {
	p := wire.Parser{Rest: payload}
	cr.Parse(&p)
	if p.Bad || len(p.Rest) != 0 {
		return false
	}
	var scratch [cachedRunScratch]byte
	return bytes.Equal(cr.AppendJSON(scratch[:0]), payload)
}

// Matches reports whether the payload answers the given scenario with a
// well-formed outcome: the restated scenario must equal the asked one
// and the ledgers must be WellFormed. Anything else is treated as a miss.
func (cr *CachedRun) Matches(patternText string, inits []model.Value, n, horizon int) bool {
	if cr.Pattern != patternText || !cr.WellFormed(n, horizon) {
		return false
	}
	for i, v := range inits {
		if cr.Inits[i] != int(v) {
			return false
		}
	}
	return true
}

// WellFormed reports whether every ledger has the shape of an n-agent run
// of the given horizon with in-range values — what Restore and the
// int8-narrowing conversions behind it take on trust. Readers of payloads
// that crossed a process boundary (cache entries, shard indexes) check it
// first.
func (cr *CachedRun) WellFormed(n, horizon int) bool {
	if len(cr.Inits) != n || len(cr.Decisions) != n || len(cr.Rounds) != n || len(cr.Actions) != horizon {
		return false
	}
	for i := 0; i < n; i++ {
		if v := cr.Inits[i]; v < int(model.Zero) || v > int(model.One) {
			return false
		}
		if d := cr.Decisions[i]; d < int(model.None) || d > int(model.One) {
			return false
		}
		if r := cr.Rounds[i]; r < 0 || r > horizon {
			return false
		}
	}
	for _, row := range cr.Actions {
		if len(row) != n {
			return false
		}
		for _, a := range row {
			if a < int(model.Noop) || a > int(model.Decide1) {
				return false
			}
		}
	}
	return true
}

// Restore synthesizes the engine.Result a fresh execution of cfg would
// have produced, minus the state trace (States is nil — sweeps, spec
// checks, and the episteme index never read it on this path).
func (cr *CachedRun) Restore(cfg engine.Config) *engine.Result {
	n := cfg.Pattern.N()
	res := &engine.Result{
		N:             n,
		Horizon:       cfg.Horizon,
		Pattern:       cfg.Pattern,
		Inits:         append([]model.Value(nil), cfg.Inits...),
		Actions:       make([][]model.Action, len(cr.Actions)),
		Decision:      make([]model.Value, n),
		DecisionRound: make([]int, n),
		Stats: engine.Stats{
			MessagesSent:      cr.Stats.MessagesSent,
			MessagesDelivered: cr.Stats.MessagesDelivered,
			BitsSent:          cr.Stats.BitsSent,
			BitsDelivered:     cr.Stats.BitsDelivered,
		},
	}
	for i := 0; i < n; i++ {
		res.Decision[i] = model.Value(cr.Decisions[i])
		res.DecisionRound[i] = cr.Rounds[i]
	}
	for m, row := range cr.Actions {
		acts := make([]model.Action, n)
		for i, a := range row {
			acts[i] = model.Action(a)
		}
		res.Actions[m] = acts
	}
	return res
}

// CacheCounters snapshots a CachingExecutor's traffic.
type CacheCounters struct {
	// Hits is the number of runs answered from the cache.
	Hits int64
	// Misses is the number of runs that executed (and were stored).
	Misses int64
}

// CachingExecutor wraps an engine.Executor with a ResultCache lookup
// per scenario. A hit restores the run without executing; a miss
// executes on the wrapped substrate and stores the outcome best-effort
// (a full disk or unreachable server never fails the run). Restored
// runs are bit-identical to executed ones in everything a sweep or spec
// check observes, so caching — like sharding — can never change what a
// sweep reports.
type CachingExecutor struct {
	inner        engine.Executor
	cache        ResultCache
	version      string
	hits, misses *atomic.Int64 // shared with the orbit memo's copies
}

// NewCachingExecutor wraps the executor; version is the stack's
// VersionDigest.
func NewCachingExecutor(inner engine.Executor, cache ResultCache, version string) *CachingExecutor {
	return &CachingExecutor{inner: inner, cache: cache, version: version, hits: new(atomic.Int64), misses: new(atomic.Int64)}
}

// Name identifies the substrate, wrapping the inner executor's name.
func (x *CachingExecutor) Name() string { return "cached(" + x.inner.Name() + ")" }

// Counters snapshots the executor's hit/miss traffic.
func (x *CachingExecutor) Counters() CacheCounters {
	return CacheCounters{Hits: x.hits.Load(), Misses: x.misses.Load()}
}

// Execute consults the cache, falling back to the wrapped executor.
func (x *CachingExecutor) Execute(cfg engine.Config, buf *engine.Buffers) (*engine.Result, error) {
	text, err := cfg.Pattern.MarshalText()
	if err != nil {
		// An unencodable pattern also fails execution; let the substrate
		// report it.
		return x.inner.Execute(cfg, buf)
	}
	// The one rendering of the pattern serves the key, the check of a hit
	// and the payload of a miss.
	patternText := string(text)
	key := CacheKey(x.version, CacheKindRun, scenarioDigest(text, cfg.Inits))
	if payload, ok := x.cache.Get(key); ok {
		var cr CachedRun
		if cr.DecodeJSON(payload) &&
			cr.Matches(patternText, cfg.Inits, cfg.Pattern.N(), cfg.Horizon) {
			x.hits.Add(1)
			return cr.Restore(cfg), nil
		}
		// Decodes but does not answer this scenario (or does not decode):
		// fall through, recompute, and overwrite the bad entry.
	}
	res, err := x.inner.Execute(cfg, buf)
	if err != nil {
		return nil, err
	}
	x.misses.Add(1)
	var cr CachedRun
	cr.encode(res, patternText)
	var scratch [cachedRunScratch]byte
	x.cache.Put(key, bytes.Clone(cr.AppendJSON(scratch[:0])))
	return res, nil
}
