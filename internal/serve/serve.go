// Package serve is the verification-as-a-service layer: a long-running
// HTTP daemon (cmd/ebaserve) that exposes the Runner and the epistemic
// model checker as a service instead of one-shot CLIs.
//
// Three POST endpoints cover the workloads:
//
//	POST /v1/sweep      SweepRequest  → the stripe's JSONL outcome
//	                    stream, byte-identical to what ebashard writes
//	                    for the same parameters (header, records,
//	                    sealed footer — core.RunShard verbatim)
//	POST /v1/check      CheckRequest  → the deterministic verdict block
//	                    (fabric.WriteVerdicts), byte-identical to
//	                    ebashard -check -merge for the same sweep
//	POST /v1/knowledge  KnowledgeRequest → KnowledgeResponse: one
//	                    epistemic query evaluated at a point of the hot
//	                    System
//
// Check and knowledge queries are answered from an LRU of built Systems
// keyed by (stack version digest, n, t, horizon) with singleflight
// deduplication — N concurrent queries against a cold entry trigger one
// build, everyone else waits for it. The LRU is backed by the result
// cache (Config.Cache) when one is configured, so a cold LRU entry whose
// sweep was built before — by this process or an earlier one — is
// restored from the sweep's one stored index instead of re-executed.
// Each cached System keeps the verdict blocks written for it (at most
// maxVerdicts), so a repeated check is answered with the stored bytes.
//
// Admission control bounds what a burst can do: at most MaxInflight
// requests are in flight (beyond that the server answers 429 without
// reading the body), at most MaxBuilds Systems build concurrently
// (excess builders queue on the build semaphore), and every request's
// worker budget is clamped to MaxParallelism before it reaches
// WithParallelism. Drain flips the server into draining: new work gets
// 503 (and /healthz goes unhealthy, so load balancers stop routing),
// requests already in flight finish normally — the graceful half of
// SIGTERM handling.
//
// GET /metrics renders the server's counters in the Prometheus text
// format: requests and rejections by kind, in-flight gauges, System-LRU
// and result-cache hit counters and ratios, and build/check/sweep
// latency histograms with p50/p99 gauges.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/adversary"
	rescache "repro/internal/cache"
	"repro/internal/core"
	"repro/internal/episteme"
	"repro/internal/fabric"
	"repro/internal/httplimit"
	"repro/internal/model"
	"repro/internal/source"
	"repro/internal/spec"
)

// VerdictHeader is the response header naming a check's outcome: "ok"
// when every verdict passed, "failed" when the block lists violations
// (the body is written either way, exactly as the CLIs write it).
const VerdictHeader = "X-Eba-Verdict"

// Config configures NewServer. The zero value serves with defaults: no
// result cache, 8 hot Systems, 2 concurrent builds, 256 in-flight
// requests, and a per-request worker budget of GOMAXPROCS.
type Config struct {
	// Cache, when set, backs every build and sweep with the persistent
	// result cache; Fingerprint is folded into its version digests
	// (cache.Fingerprint ties entries to the binary's VCS revision).
	Cache       core.ResultCache
	Fingerprint string
	// MaxSystems caps the System LRU (default 8). Evicted Systems are
	// rebuilt on demand — warm, if a result cache is configured.
	MaxSystems int
	// MaxBuilds bounds concurrent System builds (default 2): builds are
	// the expensive admission unit, so a burst of cold queries queues
	// here instead of building GOMAXPROCS systems at once.
	MaxBuilds int
	// MaxInflight bounds concurrently served requests; one more gets
	// 429 (default 256).
	MaxInflight int
	// MaxParallelism clamps every request's worker budget before it
	// reaches WithParallelism (default GOMAXPROCS). Requests asking for
	// 0 get the full budget.
	MaxParallelism int
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// Server is the serving layer. Create one with NewServer, mount Handler
// on an http.Server, and call Drain on SIGTERM before Shutdown.
type Server struct {
	cfg      Config
	lru      *systemLRU
	met      *metrics
	inflight chan struct{}
	builds   chan struct{}
	draining chan struct{}
}

// NewServer validates the config and returns a ready server.
func NewServer(cfg Config) *Server {
	if cfg.MaxSystems <= 0 {
		cfg.MaxSystems = 8
	}
	if cfg.MaxBuilds <= 0 {
		cfg.MaxBuilds = 2
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 256
	}
	if cfg.MaxParallelism <= 0 {
		cfg.MaxParallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	met := newMetrics()
	return &Server{
		cfg:      cfg,
		lru:      newSystemLRU(cfg.MaxSystems, met),
		met:      met,
		inflight: make(chan struct{}, cfg.MaxInflight),
		builds:   make(chan struct{}, cfg.MaxBuilds),
		draining: make(chan struct{}),
	}
}

// Handler returns the server's HTTP handler (routes in the package
// comment).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sweep", s.admit(kindSweep, s.handleSweep))
	mux.HandleFunc("/v1/check", s.admit(kindCheck, s.handleCheck))
	mux.HandleFunc("/v1/knowledge", s.admit(kindKnowledge, s.handleKnowledge))
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealth)
	return mux
}

// Drain flips the server into draining: /healthz goes 503 (load
// balancers stop routing), new work requests get 503, and requests
// already in flight finish normally. Safe to call from any goroutine,
// any number of times.
func (s *Server) Drain() {
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Inflight reports the number of requests currently being served — what
// an orchestrator polls while waiting for a drain to empty out.
func (s *Server) Inflight() int { return len(s.inflight) }

// admit wraps a work handler with the admission layer: method check,
// drain check, and the bounded in-flight pool (full pool → 429, the
// caller backs off and retries). Metrics see every outcome.
func (s *Server) admit(kind string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if s.Draining() {
			s.met.drained.Add(1)
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		select {
		case s.inflight <- struct{}{}:
		default:
			s.met.rejected(kind)
			http.Error(w, "server at capacity", http.StatusTooManyRequests)
			return
		}
		defer func() { <-s.inflight }()
		t0 := time.Now()
		s.met.started(kind)
		h(w, r)
		s.met.finished(kind, time.Since(t0).Seconds())
	}
}

// parallelism clamps a request's worker budget to the server's cap
// (0 = the full cap).
func (s *Server) parallelism(requested int) int {
	if requested <= 0 || requested > s.cfg.MaxParallelism {
		return s.cfg.MaxParallelism
	}
	return requested
}

// --- sweep -----------------------------------------------------------------

// SweepRequest asks for one stripe of a stack's exhaustive SO(t) sweep.
// The response body is the stripe's self-describing JSONL outcome
// stream — byte-identical to `ebashard -stack ... -shard i/k` with the
// same parameters, so served stripes merge and cmp cleanly against
// CLI-produced ones.
type SweepRequest struct {
	// Stack names the protocol stack (see the registry); N, T its size.
	Stack string `json:"stack"`
	N     int    `json:"n"`
	T     int    `json:"t"`
	// Horizon optionally overrides the stack's execution horizon
	// (0 = the stack default, t+2).
	Horizon int `json:"horizon,omitempty"`
	// Shard selects the stripe as "i/k" (empty = the whole sweep, 0/1).
	Shard string `json:"shard,omitempty"`
	// Quotient sweeps one representative per agent-permutation orbit;
	// records carry their orbit size as a multiplicity.
	Quotient bool `json:"quotient,omitempty"`
	// SkipSpec turns off the per-run EBA spec check (on by default,
	// matching ebashard; a violation aborts the stripe mid-stream).
	SkipSpec bool `json:"skipSpec,omitempty"`
	// Parallelism is the stripe's worker budget, clamped to the
	// server's MaxParallelism (0 = the full budget). Never changes the
	// output bytes.
	Parallelism int `json:"parallelism,omitempty"`
}

// newStack resolves the request's stack against the registry.
func newStack(name string, n, t, horizon int) (core.Stack, error) {
	return core.NewStack(name, core.WithN(n), core.WithT(t), core.WithHorizon(horizon))
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := httplimit.DecodeJSON(w, r, &req); err != nil {
		http.Error(w, "bad sweep request: "+err.Error(), http.StatusBadRequest)
		return
	}
	shard, err := source.ParseShardSpec(req.Shard)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	stack, err := newStack(req.Stack, req.N, req.T, req.Horizon)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	pats, err := source.SO(stack.N, stack.T, stack.Horizon(), adversary.Options{})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	src, err := source.CrossInits(pats, stack.N)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var csrc core.Source = src
	if req.Quotient {
		csrc = source.Quotient(src)
	}
	opts := []core.RunnerOption{
		core.WithParallelism(s.parallelism(req.Parallelism)),
	}
	if !req.SkipSpec {
		opts = append(opts, core.WithSpecCheck(specOptions(stack)))
	}
	if s.cfg.Cache != nil {
		opts = append(opts, core.WithResultCache(s.cfg.Cache, s.cfg.Fingerprint))
	}

	// From here on the stream is committed: the header goes out first,
	// and an error mid-sweep leaves the stream without its sealed footer
	// — exactly what every stream consumer in this repository rejects —
	// so a torn response can never be mistaken for a complete stripe.
	w.Header().Set("Content-Type", "application/x-ndjson")
	sum, err := core.NewRunner(stack, opts...).RunShard(r.Context(), csrc, shard.Index, shard.Count, w)
	if err != nil {
		s.cfg.Logf("serve: sweep %s n=%d t=%d shard %s: %v", req.Stack, req.N, req.T, shard.String(), err)
		return
	}
	s.met.sweepRecords.Add(int64(sum.Records))
	s.met.observeCacheHits(sum.CacheHits)
	s.met.sweepRelabeled.Add(sum.Relabeled)
}

// specOptions is the spec-check configuration every sweep surface in
// this repository uses (ebashard checks every run with it).
func specOptions(stack core.Stack) spec.Options {
	return spec.Options{RoundBound: stack.Horizon(), ValidityAllAgents: true}
}

// --- check -----------------------------------------------------------------

// CheckRequest asks for the deterministic verdict block of one stack's
// exhaustive model check, answered from the hot System LRU. The body is
// byte-identical to `ebashard -check -shard 0/1` piped through
// `-check -merge` with the same flags.
type CheckRequest struct {
	Stack string `json:"stack"`
	N     int    `json:"n"`
	T     int    `json:"t"`
	// Horizon optionally overrides the stack's horizon (0 = default).
	Horizon int `json:"horizon,omitempty"`
	// Safety also checks the Definition 6.2 safety condition.
	Safety bool `json:"safety,omitempty"`
	// SkipOptimality turns off the Theorem 7.5 characterization check
	// (on by default for fip, matching ebashard).
	SkipOptimality bool `json:"skipOptimality,omitempty"`
	// MaxViolations caps the violations listed per check (0 = 5).
	MaxViolations int `json:"maxViolations,omitempty"`
	// Parallelism is the build/check worker budget, clamped to the
	// server's MaxParallelism (0 = the full budget).
	Parallelism int `json:"parallelism,omitempty"`
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req CheckRequest
	if err := httplimit.DecodeJSON(w, r, &req); err != nil {
		http.Error(w, "bad check request: "+err.Error(), http.StatusBadRequest)
		return
	}
	stack, err := newStack(req.Stack, req.N, req.T, req.Horizon)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := s.lruKey(stack)
	sys, err := s.system(r.Context(), key, stack, s.parallelism(req.Parallelism))
	if err != nil {
		s.systemError(w, err)
		return
	}
	vk := verdictKey{stack.Name, fabric.VerdictOptions{Safety: req.Safety, Optimality: !req.SkipOptimality, MaxViolations: req.MaxViolations}}
	if vk.opts.MaxViolations <= 0 {
		vk.opts.MaxViolations = 5 // WriteVerdicts' own default
	}
	v, hit := s.lru.verdict(key, vk)
	if !hit {
		// Verdicts buffer through bytes so a failed check can still set its
		// header, and so the block can be memoized.
		var buf writeCounter
		err := fabric.WriteVerdicts(r.Context(), &buf, sys, stack.Name, vk.opts)
		if err != nil && !errors.Is(err, fabric.ErrVerification) {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		v = verdict{body: buf.buf, outcome: "ok"}
		if err != nil {
			v.outcome = "failed"
		}
		s.lru.storeVerdict(key, vk, v)
	}
	w.Header().Set(VerdictHeader, v.outcome)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(v.body)
}

// systemError maps a failed System resolution to a status code:
// cancellation is the client's, everything else the server's.
func (s *Server) systemError(w http.ResponseWriter, err error) {
	if isCancellation(err) {
		http.Error(w, err.Error(), http.StatusRequestTimeout)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

// writeCounter is the minimal buffering io.Writer (bytes.Buffer without
// the unused surface).
type writeCounter struct{ buf []byte }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// --- knowledge -------------------------------------------------------------

// Knowledge query kinds.
const (
	// QueryExists asks whether value Value exists as some agent's
	// initial preference at the point (∃v).
	QueryExists = "exists"
	// QueryKnowsExists asks whether Agent knows ∃v at the point
	// (K_i ∃v — the P0/Pmin decision guard for v=0).
	QueryKnowsExists = "knows_exists"
	// QueryKnowsCK asks B_i C_T-faulty(decide v): the common-knowledge
	// guard of the paper's P1 program.
	QueryKnowsCK = "knows_ck"
	// QueryNonfaulty asks whether Agent is nonfaulty at the point.
	QueryNonfaulty = "nonfaulty"
	// QueryDecided asks whether Agent has decided Value by the point
	// (the response also carries what it decided, if anything).
	QueryDecided = "decided"
)

// KnowledgeRequest evaluates one epistemic query at a point (Run, Time)
// of the stack's interpreted system. The System is resolved through the
// same LRU the check endpoint uses, so a burst of point queries against
// one stack shares one hot System.
type KnowledgeRequest struct {
	Stack string `json:"stack"`
	N     int    `json:"n"`
	T     int    `json:"t"`
	// Horizon optionally overrides the stack's horizon (0 = default).
	Horizon int `json:"horizon,omitempty"`
	// Query is one of the Query* kinds.
	Query string `json:"query"`
	// Agent is the querying agent i (ignored by "exists").
	Agent int `json:"agent"`
	// Run and Time locate the point: Run indexes the canonical
	// enumeration (a sweep stream's ordinal), Time is 0..horizon.
	Run  int `json:"run"`
	Time int `json:"time"`
	// Value is the consensus value v the query talks about (0 or 1;
	// ignored by "nonfaulty").
	Value int `json:"value"`
	// Parallelism is the build worker budget if the System is cold,
	// clamped to the server's MaxParallelism (0 = the full budget).
	Parallelism int `json:"parallelism,omitempty"`
}

// KnowledgeResponse is the query's answer.
type KnowledgeResponse struct {
	// Holds reports whether the queried formula holds at the point.
	Holds bool `json:"holds"`
	// Decided carries the agent's decided value at the point for the
	// "decided" query: 0, 1, or -1 for undecided.
	Decided int `json:"decided"`
	// Runs is the system's run count — the valid Run range.
	Runs int `json:"runs"`
	// Horizon is the system's horizon — the valid Time range.
	Horizon int `json:"horizon"`
}

// knowledgeQueries evaluates each query kind at a validated point; the
// handler adds the echoed dimensions.
var knowledgeQueries = map[string]func(sys *episteme.System, i model.AgentID, p episteme.Point, v model.Value) KnowledgeResponse{
	QueryExists: func(sys *episteme.System, _ model.AgentID, p episteme.Point, v model.Value) KnowledgeResponse {
		return KnowledgeResponse{Holds: sys.Exists(v, p)}
	},
	QueryKnowsExists: func(sys *episteme.System, i model.AgentID, p episteme.Point, v model.Value) KnowledgeResponse {
		return KnowledgeResponse{Holds: sys.Knows(i, p, func(q episteme.Point) bool { return sys.Exists(v, q) })}
	},
	QueryKnowsCK: func(sys *episteme.System, i model.AgentID, p episteme.Point, v model.Value) KnowledgeResponse {
		return KnowledgeResponse{Holds: sys.KnowsCK(i, p, v)}
	},
	QueryNonfaulty: func(sys *episteme.System, i model.AgentID, p episteme.Point, _ model.Value) KnowledgeResponse {
		return KnowledgeResponse{Holds: sys.Nonfaulty(i, p)}
	},
	QueryDecided: func(sys *episteme.System, i model.AgentID, p episteme.Point, v model.Value) KnowledgeResponse {
		d := sys.DecidedVal(i, p)
		if !d.IsSet() {
			return KnowledgeResponse{Decided: -1}
		}
		return KnowledgeResponse{Holds: d == v, Decided: int(d)}
	},
}

func (s *Server) handleKnowledge(w http.ResponseWriter, r *http.Request) {
	var req KnowledgeRequest
	if err := httplimit.DecodeJSON(w, r, &req); err != nil {
		http.Error(w, "bad knowledge request: "+err.Error(), http.StatusBadRequest)
		return
	}
	stack, err := newStack(req.Stack, req.N, req.T, req.Horizon)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Value != 0 && req.Value != 1 {
		http.Error(w, fmt.Sprintf("value %d is not a consensus value (0 or 1)", req.Value), http.StatusBadRequest)
		return
	}
	// Everything the request alone decides is refused before the System is
	// resolved: a cold n=5 build costs seconds and a gigabyte.
	answer, known := knowledgeQueries[req.Query]
	if !known {
		http.Error(w, fmt.Sprintf("unknown query %q", req.Query), http.StatusBadRequest)
		return
	}
	sys, err := s.system(r.Context(), s.lruKey(stack), stack, s.parallelism(req.Parallelism))
	if err != nil {
		s.systemError(w, err)
		return
	}
	if req.Run < 0 || req.Run >= len(sys.Runs) {
		http.Error(w, fmt.Sprintf("run %d outside the system's %d runs", req.Run, len(sys.Runs)), http.StatusBadRequest)
		return
	}
	if req.Time < 0 || req.Time > sys.Horizon {
		http.Error(w, fmt.Sprintf("time %d outside 0..%d", req.Time, sys.Horizon), http.StatusBadRequest)
		return
	}
	if req.Agent < 0 || req.Agent >= sys.N {
		http.Error(w, fmt.Sprintf("agent %d outside 0..%d", req.Agent, sys.N-1), http.StatusBadRequest)
		return
	}

	resp := answer(sys, model.AgentID(req.Agent), episteme.Point{Run: req.Run, Time: req.Time}, model.Value(req.Value))
	resp.Runs, resp.Horizon = len(sys.Runs), sys.Horizon
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// --- system resolution -----------------------------------------------------

// system resolves the stack's full interpreted System through the LRU,
// filed under key (lruKey):
// a hit is free, a cold key builds once under the build semaphore (and
// singleflight — concurrent identical queries share the one build), or,
// when a result cache is configured and holds the sweep's index, restores
// it from that one entry. Stored Systems are always the complete sweep:
// whether a build goes through the symmetry quotient is BuildSystem's
// decision, and it expands before returning.
func (s *Server) system(ctx context.Context, key string, stack core.Stack, par int) (*episteme.System, error) {
	return s.lru.get(ctx, key, func(ctx context.Context) (*episteme.System, error) {
		// The build semaphore bounds concurrent builds across ALL keys;
		// respect cancellation while queued.
		select {
		case s.builds <- struct{}{}:
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
		defer func() { <-s.builds }()

		t0 := time.Now()
		ec := episteme.ContextFor(stack)
		opts := []episteme.Option{episteme.WithParallelism(par)}
		if s.cfg.Cache != nil {
			opts = append(opts, episteme.WithCache(s.cfg.Cache, s.cfg.Fingerprint))
		}
		sys, err := episteme.BuildSystem(ctx, ec, stack.Action, opts...)
		if err != nil {
			return nil, err
		}
		s.met.buildSeconds.observe(time.Since(t0).Seconds())
		s.cfg.Logf("serve: built system %s n=%d t=%d h=%d (%d runs, %.3fs)",
			stack.Name, stack.N, stack.T, stack.Horizon(), len(sys.Runs), time.Since(t0).Seconds())
		return sys, nil
	})
}

// lruKey names the stack's System in the LRU.
func (s *Server) lruKey(stack core.Stack) string {
	return fmt.Sprintf("%s/%d/%d/%d", stack.VersionDigest(s.cfg.Fingerprint), stack.N, stack.T, stack.Horizon())
}

// --- health and metrics ----------------------------------------------------

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.render(w, len(s.inflight), s.resultCacheStats())
}

// resultCacheStats snapshots the configured result cache's counters
// when the store can report them (internal/cache's Cache can).
func (s *Server) resultCacheStats() *rescache.Stats {
	if statser, ok := s.cfg.Cache.(interface{ Stats() rescache.Stats }); ok {
		st := statser.Stats()
		return &st
	}
	return nil
}
