// Package episteme is an epistemic model checker for the EBA contexts of
// the paper. It builds interpreted systems by exhaustively enumerating
// failure patterns and initial preferences, evaluates knowledge (K_i),
// indexical common knowledge among the nonfaulty agents (C_N), and the
// ⊡-reachability underlying Halpern–Moses–Waarts continual common
// knowledge, and uses these to verify the paper's theorems on concrete
// protocols:
//
//   - CheckImplements: Theorems 6.5, 6.6 and A.21 — a concrete protocol
//     implements the knowledge-based program P0 (or P1) in its context.
//   - CheckSafety: Proposition 6.4 — the safety condition of Def. 6.2.
//   - CheckOptimalityFIP: Theorem 7.5 — the optimality characterization
//     for full-information protocols.
//   - Synthesize: the Section 8 "epistemic synthesis" direction — derive a
//     concrete action protocol from a knowledge-based program and export it
//     as a runnable ActionProtocol. It has no loop of its own: time m's
//     actions come from the BuildSystem call at horizon m over the table
//     grown so far, and nothing is built at the full horizon.
//
// The checker is built in three sharded layers:
//
//   - Enumeration: runs stream from internal/source's pattern × inits
//     product through core.Runner.RunSource — the same worker pool,
//     cancellation, and ordering machinery every other sweep in the
//     repository uses. Rounds are memoized per state vector across runs
//     (exec.go): the runs that reach one vector share its node, whose
//     actions are chosen once. Over an exchange with model.KeyPermuter
//     (Efip, Emin, Ebasic) only one run per agent-permutation orbit is
//     executed and the rest are rebuilt by relabeling (quotient.go); the
//     builders decide.
//   - Representation: local states are interned into dense class ids per
//     (time, agent) slot at index-build time; every knowledge query after
//     that is integer indexing, never string hashing. Index slots are
//     built in parallel. The tables form the system's Kripke frame, the
//     one structure the checkers read (index.go, frame). A system
//     expanded from the symmetry quotient is time-layered: before the
//     horizon its frame has one row per prefix unit — the runs that
//     differ only in the last round's omissions, which nothing before
//     time Horizon can depend on — instead of one per run (indexFrame,
//     "Rows").
//   - Evaluation: a System is safe for concurrent use, per-time C_N
//     condensations build concurrently — each folding P1's
//     common-knowledge guard once per component as it is built — and the
//     checkers evaluate each knowledge condition once per
//     indistinguishability class (foldClasses), sharding slots and runs
//     over a worker pool (WithParallelism) while reporting violations in
//     the canonical enumeration order — results are bit-identical at every
//     parallelism level.
//
// Everything here is exhaustive and therefore exponential in n, t, and the
// horizon. Every pass is linear in the number of points, so what bounds
// it is the enumeration itself: n=5,t=1 (655,392 runs in 40,992 prefix
// units, through the symmetry quotient) checks in about a second within a
// gigabyte; n=6,t=2 is the open frontier (ROADMAP).
package episteme

import (
	"context"
	"fmt"
	"math/bits"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/source"
)

// Option tunes system construction and checking.
type Option func(*options)

type options struct {
	par         int
	cache       core.ResultCache
	fingerprint string
	quotient    bool // not an option: buildOptions derives it from the context
}

// WithParallelism sets the worker count used to execute runs, build the
// index and the C_N condensations, and shard the checkers' point loops.
// k <= 0 (and the default) means one worker per available CPU. Results
// are independent of k: every parallel path reassembles its output in
// the canonical enumeration order.
func WithParallelism(k int) Option {
	return func(o *options) { o.par = k }
}

// WithQuotient does nothing: the context's exchange, not the caller,
// decides whether a build goes through the symmetry quotient (BuildSystem).
//
// Deprecated: the frozen benchmark harness still calls it (ROADMAP 3(d)).
func WithQuotient() Option {
	return func(*options) {}
}

// WithCache makes BuildShardIndex probe a result cache for its stripe's
// serialized index before building it, and store the index it built: one
// entry per stripe, keyed by the stack's full semantic identity
// (exchange, action protocol, n, t, horizon, build fingerprint — see
// core.Stack.VersionDigest), the stripe and the enumeration parameters.
// BuildSystem with a cache is BuildShardIndex(0, 1) followed by
// MergeSystems (and ExpandQuotient when the stripe is quotiented), so
// every verdict is bit-identical to the uncached build's — but, like any
// merged System, it carries no state traces (Key and every checker work
// off the interned index).
func WithCache(c core.ResultCache, fingerprint string) Option {
	return func(o *options) {
		o.cache = c
		o.fingerprint = fingerprint
	}
}

func newOptions(opts []Option) options {
	o := options{}
	for _, opt := range opts {
		opt(&o)
	}
	if o.par <= 0 {
		o.par = goruntime.GOMAXPROCS(0)
	}
	return o
}

// buildOptions resolves a build's options in context c, and picks the
// quotient: one representative per agent-permutation orbit is enumerated
// exactly when ExpandQuotient could rebuild the full system from them. No
// size has the per-run build ahead (docs/architecture.md, "Who picks the
// quotient").
func buildOptions(c Context, opts []Option) options {
	o := newOptions(opts)
	_, err := expandable(c)
	o.quotient = err == nil
	return o
}

// parallelDo runs fn(k) for every k in [0, count) over min(par, count)
// workers, stopping early when ctx is cancelled. fn must be safe to call
// concurrently and must write only to its own k-indexed slots; callers
// reassemble deterministic output from those slots. It returns the
// context's cancellation cause, or nil when every k ran.
func parallelDo(ctx context.Context, par, count int, fn func(k int)) error {
	if par > count {
		par = count
	}
	if par <= 1 {
		for k := 0; k < count; k++ {
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			fn(k)
		}
		return context.Cause(ctx)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1)) - 1
				if k >= count {
					return
				}
				fn(k)
			}
		}()
	}
	wg.Wait()
	return context.Cause(ctx)
}

// Context describes the interpreted system to build: an EBA context
// (exchange, failure model) plus the action protocol generating the runs
// and enumeration bounds.
type Context struct {
	// Exchange is the information-exchange protocol E.
	Exchange model.Exchange
	// T is the failure bound of the sending-omissions model SO(T).
	T int
	// Horizon is the number of rounds each run executes; the paper's
	// protocols decide by round T+2, so T+2 is the natural choice.
	Horizon int
	// Options tunes pattern enumeration.
	Options adversary.Options
	// Crash restricts enumeration to the crash model instead of SO(T).
	Crash bool
}

// ContextFor returns the model-checking context of a stack's EBA context:
// exhaustive enumeration of the stack's failure model at its execution
// horizon.
func ContextFor(s core.Stack) Context {
	return Context{Exchange: s.Exchange, T: s.T, Horizon: s.Horizon()}
}

func (c Context) horizonOrDefault() int {
	if c.Horizon > 0 {
		return c.Horizon
	}
	return c.T + 2
}

// patternSource returns the context's failure-pattern stream. Rejected
// enumeration bounds (too many drop slots, Options.MaxPatterns exceeded)
// surface as errors instead of the deprecated enumerators' panics.
func (c Context) patternSource(n, horizon int) (source.Patterns, error) {
	if c.Crash {
		return source.Crash(n, c.T, horizon)
	}
	return source.SO(n, c.T, horizon, c.Options)
}

// scenarioSource returns the streaming pattern × inits product the
// builders enumerate the system's runs from and ExpandQuotient
// re-enumerates — the one definition of the run skeletons.
func (c Context) scenarioSource(n, horizon int) (core.Source, error) {
	pats, err := c.patternSource(n, horizon)
	if err != nil {
		return nil, err
	}
	return source.CrossInits(pats, n)
}

// Run is one run of a System: its failure pattern, its message traffic
// and its initial preferences. What its agents do is the System's
// labelling, read through DecidedVal, JustDecided, Deciding and Ledger.
// The runs of one orbit of an expanded system share their Stats.
type Run struct {
	Pattern *model.Pattern
	Stats   *engine.Stats
	inits   uint64 // bit i set iff agent i prefers 1
}

// Init returns agent i's initial preference.
func (r Run) Init(i model.AgentID) model.Value { return model.Value(r.inits >> uint(i) & 1) }

// Point is a point (run, time) of an interpreted system.
type Point struct {
	// Run indexes System.Runs.
	Run int
	// Time is the time component m.
	Time int
}

// System is an interpreted system: every run of one action protocol under
// every admissible failure pattern and initial assignment, with an
// interned index from local states to the points carrying them. After
// construction a System is immutable apart from internal synchronized
// caches, so it is safe for concurrent use — the checkers shard their
// loops over a worker pool.
type System struct {
	// N is the number of agents, T the failure bound, Horizon the number
	// of rounds.
	N, T, Horizon int
	// Runs holds every enumerated run, in enumeration order.
	Runs []Run

	// weights, when non-nil, marks a symmetry-quotiented system: Runs are
	// the canonical orbit representatives of the sweep and weights[r] is
	// run r's orbit size (source.Quotient). A quotiented system is an
	// intermediate — ExpandQuotient rebuilds the full system from it; the
	// checkers refuse to run on one, since every knowledge query would
	// silently ignore the collapsed runs, and the point queries (Knows,
	// Class, KnowsCK, CNReachable, KBPAction) panic with their refusal, so
	// nothing reads its member lists.
	weights []int64

	// par is the checker worker count (resolved, >= 1).
	par int

	frame  frame   // rows and classes: all the checkers read of the index
	labels *labels // what each class does: all they read of the protocol

	// cn lazily caches the per-time condensations of the C_N
	// accessibility graph; cnMu guards the map, each slot builds once.
	cnMu sync.Mutex
	cn   map[int]*cnSlot
}

// Quotiented reports whether the system's runs are symmetry-orbit
// representatives (merged from quotiented shard indexes) rather than the
// full enumeration. A quotiented system must be passed through
// ExpandQuotient before checking.
func (s *System) Quotiented() bool { return s.weights != nil }

// Weight returns the number of full-sweep runs run r stands for: its
// orbit size in a quotiented system, 1 otherwise.
func (s *System) Weight(run int) int64 {
	if s.weights == nil {
		return 1
	}
	return s.weights[run]
}

// checkableSystem refuses to run a checker over a quotiented system:
// its runs are one-per-orbit, so every knowledge relation and verdict
// would silently quantify over a fraction of the sweep. Expand first.
func (s *System) checkableSystem() error {
	if s.Quotiented() {
		return fmt.Errorf("episteme: checking a symmetry-quotiented system; ExpandQuotient it first")
	}
	return nil
}

// mustCheckable is checkableSystem for the point queries, which return no
// error: a quotiented system has no member lists to answer them from.
func (s *System) mustCheckable() {
	if err := s.checkableSystem(); err != nil {
		panic(err)
	}
}

// parallelism returns the checker worker count (>= 1 even on Systems
// assembled literally in tests).
func (s *System) parallelism() int {
	if s.par < 1 {
		return 1
	}
	return s.par
}

// parallel shards fn over the system's worker pool.
func (s *System) parallel(ctx context.Context, count int, fn func(k int)) error {
	return parallelDo(ctx, s.parallelism(), count, fn)
}

// BuildSystem enumerates every run of the action protocol in the context
// and indexes the local states. Runs stream from the shared scenario
// source through a core.Runner worker pool (WithParallelism tunes it);
// the resulting order is deterministic (enumeration order) and
// bit-identical at every parallelism level. The first execution error or
// ctx cancellation aborts the build, cancelling outstanding work via the
// context cause.
//
// When the exchange's keys can cross an agent relabeling
// (model.KeyPermuter — Efip rewrites them, Emin and Ebasic name no agent),
// one representative per agent-permutation orbit is executed, up to n!
// fewer runs, and ExpandQuotient rebuilds the System that running every
// scenario yields, verdicts byte for byte, minus the state traces. Over
// an exchange without the method every scenario is run.
func BuildSystem(ctx context.Context, c Context, act model.ActionProtocol, opts ...Option) (*System, error) {
	if c.Exchange == nil || act == nil {
		return nil, fmt.Errorf("episteme: Exchange and action protocol are required")
	}
	o := buildOptions(c, opts)
	if o.cache != nil {
		return cachedSystem(ctx, c, act, opts)
	}
	sys, err := buildStripe(ctx, c, act, 0, 1, o)
	if err != nil || !sys.Quotiented() {
		return sys, err
	}
	return ExpandQuotient(ctx, sys, c)
}

// buildStripe enumerates stripe shardIndex of a shardCount-way split of
// the context's sweep — all of it at 0/1 — and indexes the local states.
// Under o.quotient the sweep is reduced to representatives before
// striding: the stripes partition them, so every orbit is executed exactly
// once across the stripes and the stripe ordinals are quotient ordinals.
func buildStripe(ctx context.Context, c Context, act model.ActionProtocol, shardIndex, shardCount int, o options) (*System, error) {
	n := c.Exchange.N()
	horizon := c.horizonOrDefault()
	src, err := c.scenarioSource(n, horizon)
	if err != nil {
		return nil, err
	}
	if o.quotient {
		src = source.Quotient(src)
	}
	src, err = core.Stride(src, shardIndex, shardCount)
	if err != nil {
		return nil, err
	}
	runner := core.NewRunner(cacheStack(c, act, n, horizon),
		core.WithExecutor(newMemoExec(horizon)),
		core.WithParallelism(o.par))
	// A quotiented source annotates each representative with its orbit
	// size as the scenario Weight; RunSource drops scenarios, so collect
	// run results and weights side by side from the stream (same ordering
	// and fail-fast semantics as RunSource, and its capped preallocation).
	var results []*engine.Result
	if count, ok := src.Count(); ok && count >= 0 {
		results = make([]*engine.Result, 0, min(count, 1<<20))
	}
	var weights []int64
	if o.quotient {
		weights = []int64{} // non-nil even for an empty stripe: quotiented-ness is structural
	}
	rctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	for oc := range runner.StreamFrom(rctx, src) {
		if oc.Err != nil {
			cancel(oc.Err)
			return nil, oc.Err
		}
		results = append(results, oc.Result)
		if o.quotient {
			weights = append(weights, oc.Scenario.EffectiveWeight())
		}
	}
	if rctx.Err() != nil {
		return nil, context.Cause(rctx)
	}
	return fromResults(ctx, &System{N: n, T: c.T, Horizon: horizon, weights: weights, par: o.par}, results)
}

// fromResults completes s from its executed runs (index.go's direct-build
// producer): the runs keep their scenarios and traffic, the local states
// of every time are interned from the state traces — the last layer too,
// so that nothing keeps the results — and the classes are labelled with
// their actions.
func fromResults(ctx context.Context, s *System, results []*engine.Result) (*System, error) {
	n := s.N
	stats := make([]engine.Stats, len(results))
	s.Runs = make([]Run, len(results))
	for r, res := range results {
		bits, _ := initsBits(res.Inits) // the scenario source's, each 0 or 1
		stats[r] = res.Stats
		s.Runs[r] = Run{res.Pattern, &stats[r], uint64(bits)}
	}
	// The memoizing executor hands every run through one node of its graph
	// the node's state row, so group runs by row identity first, once per
	// time: a slot's memo code is the run's row group, and the keys are
	// rendered once per distinct row instead of once per run.
	rowOf := make([][]int32, s.Horizon+1)
	rowCount := make([]int, s.Horizon+1)
	if err := s.parallel(ctx, s.Horizon+1, func(m int) {
		groups := make([]int32, len(results))
		rowIdx := make(map[*model.State]int32, len(results))
		for r, res := range results {
			head := &res.States[m][0]
			g, ok := rowIdx[head]
			if !ok {
				g = int32(len(rowIdx))
				rowIdx[head] = g
			}
			groups[r] = g
		}
		rowOf[m], rowCount[m] = groups, len(rowIdx)
	}); err != nil {
		return nil, err
	}
	x := &indexFrame{}
	if _, err := s.indexed(ctx, x, func(slot int) slotRows {
		m, i := slot/n, slot%n
		groups := rowOf[m]
		return slotRows{
			n:     len(results),
			codes: rowCount[m],
			code:  func(r int) int { return int(groups[r]) },
			key:   func(dst []byte, r int) ([]byte, error) { return results[r].States[m][i].AppendKey(dst), nil },
			act:   func(r int) model.Action { return results[r].Actions[m][i] },
		}
	}); err != nil {
		return nil, err
	}
	x.lastLayer()
	return s, nil
}

// slot returns the index slot of agent i at time m.
func (s *System) slot(i model.AgentID, m int) int { return m*s.N + int(i) }

// classAt returns the dense class id of agent i's local state at (run, m).
func (s *System) classAt(i model.AgentID, m, run int) int32 {
	return s.frame.classes(s.slot(i, m)).at(s.frame.layout(m).row(run))
}

// Key returns agent i's local-state key at point p, from the index:
// merged, cached and expanded Systems carry no state traces. The index
// keeps keys as bytes, so each call copies one.
func (s *System) Key(i model.AgentID, p Point) string {
	return string(s.frame.keys(s.slot(i, p.Time)).at(s.classAt(i, p.Time, p.Run)))
}

// runsOfRows returns the runs of the given time-m rows, row by row.
func (s *System) runsOfRows(m int, rows []int32) []int {
	l, size := s.frame.layout(m), 0
	for _, row := range rows {
		l.each(int(row), func(int) bool { size++; return true })
	}
	out := make([]int, 0, size)
	for _, row := range rows {
		l.each(int(row), func(r int) bool { out = append(out, r); return true })
	}
	return out
}

// runsOfClass returns the runs of class c in agent i's time-m slot,
// ascending.
func (s *System) runsOfClass(i model.AgentID, m int, c int32) []int {
	runs := s.runsOfRows(m, s.frame.members(s.slot(i, m)).of(c))
	slices.Sort(runs) // the runs of several rows interleave
	return runs
}

// Class returns the points agent i cannot distinguish from p, in run
// order.
func (s *System) Class(i model.AgentID, p Point) []Point {
	s.mustCheckable()
	runs := s.runsOfClass(i, p.Time, s.classAt(i, p.Time, p.Run))
	out := make([]Point, len(runs))
	for k, r := range runs {
		out[k] = Point{Run: r, Time: p.Time}
	}
	return out
}

// everyRow reports whether holds is true at every row of agent i's class
// at p: K_i of a row function.
func (s *System) everyRow(i model.AgentID, p Point, holds func(row int) bool) bool {
	for _, row := range s.frame.members(s.slot(i, p.Time)).of(s.classAt(i, p.Time, p.Run)) {
		if !holds(int(row)) {
			return false
		}
	}
	return true
}

// Knows evaluates K_i φ at p: φ holds at every point i cannot distinguish
// from p. φ may be any function of the point, so every run of every row
// of the class is asked.
func (s *System) Knows(i model.AgentID, p Point, phi func(Point) bool) bool {
	s.mustCheckable()
	l := s.frame.layout(p.Time)
	return s.everyRow(i, p, func(row int) bool {
		return l.each(row, func(r int) bool { return phi(Point{Run: r, Time: p.Time}) })
	})
}

// knowsOfRows evaluates K_i φ at p for a row function φ: one question per
// row of the class, put to the row's first run.
func (s *System) knowsOfRows(i model.AgentID, p Point, phi func(Point) bool) bool {
	l := s.frame.layout(p.Time)
	return s.everyRow(i, p, func(row int) bool { return phi(Point{Run: l.first(row), Time: p.Time}) })
}

// foldClasses evaluates pred once at every row of time ≤ maxTime for
// every agent and folds it per indistinguishability class:
// tables[slot][c] reports whether pred holds at some point of class c
// (exists) or at every point of it (!exists) — ¬K_i¬pred and K_i pred, as
// functions of the local state. This is what keeps the checkers linear in
// the number of points: a condition on agent i's class is computed in one
// pass over the rows and then read per point, never re-derived by
// scanning the class from each of its members. pred is asked at each
// row's first run and given the row's faulty set as a mask, so it must be
// a row function (frame), with the row's decisions. Slots fold in
// parallel; passing the previous result back as tables reuses its storage.
func (s *System) foldClasses(ctx context.Context, tables [][]bool, maxTime int, exists bool, pred func(i model.AgentID, q Point, faulty uint64, ds []firstDecide) bool) ([][]bool, error) {
	nSlots := (maxTime + 1) * s.N
	if tables == nil {
		tables = make([][]bool, nSlots)
	}
	err := s.parallel(ctx, nSlots, func(slot int) {
		i, m := model.AgentID(slot%s.N), slot/s.N
		if tables[slot] == nil {
			tables[slot] = make([]bool, s.frame.keys(slot).len())
		}
		table, l, faulty := tables[slot], s.frame.layout(m), s.frame.faulty(m)
		for c := range table {
			table[c] = !exists
		}
		s.frame.classes(slot).each(func(row int, c int32) {
			if table[c] != exists && pred(i, Point{Run: l.first(row), Time: m}, faulty[row], s.labels.ofRow(l, row)) == exists {
				table[c] = exists
			}
		})
	})
	return tables, err
}

// classTables returns each slot's classes of rows, times ≤ maxTime.
func (s *System) classTables(maxTime int) []classIDs {
	tabs := make([]classIDs, (maxTime+1)*s.N)
	for slot := range tabs {
		tabs[slot] = s.frame.classes(slot)
	}
	return tabs
}

// faultyAt reports whether agent i is in the faulty set mask.
func faultyAt(mask uint64, i model.AgentID) bool { return mask>>uint(i)&1 != 0 }

// screen asks fails once per row of every time ≤ maxTime, on the worker
// pool, for the agents (bit i for agent i) at which the row fails — a row
// function, asked at the row's first run with the row's faulty set — then
// calls add at every point so marked, in the canonical (run, time, agent)
// order, with the point's row and the row's first run.
func (s *System) screen(ctx context.Context, maxTime int, fails func(m, row int, q Point, faulty uint64, ds []firstDecide) uint64, add func(i model.AgentID, m, run, row, first int)) error {
	const chunk = 1024
	bad, layouts := make([][]uint64, maxTime+1), make([]*layout, maxTime+1)
	var marked []int // the times with a failing row
	for m := range bad {
		l, faulty := s.frame.layout(m), s.frame.faulty(m)
		bad[m] = make([]uint64, l.n)
		err := s.parallel(ctx, (len(bad[m])+chunk-1)/chunk, func(k int) {
			rows := bad[m][k*chunk : min(k*chunk+chunk, len(bad[m]))]
			for j := range rows {
				row := k*chunk + j
				rows[j] = fails(m, row, Point{Run: l.first(row), Time: m}, faulty[row], s.labels.ofRow(l, row))
			}
		})
		if err != nil {
			return err
		}
		if slices.ContainsFunc(bad[m], func(b uint64) bool { return b != 0 }) {
			marked, layouts[m] = append(marked, m), l
		}
	}
	for r := 0; r < len(s.Runs) && len(marked) > 0; r++ {
		for _, m := range marked {
			row := layouts[m].row(r)
			for mask := bad[m][row]; mask != 0; mask &= mask - 1 {
				add(model.AgentID(bits.TrailingZeros64(mask)), m, r, row, layouts[m].first(row))
			}
		}
	}
	return nil
}

// report collects a checker's violations as screen meets them: the first
// max are rendered, the rest only counted (max ≤ 0 renders them all).
type report struct {
	max, met int
	lines    []string
}

// keep counts the next violation and reports whether it is rendered.
func (rp *report) keep() bool {
	rp.met++
	return rp.max <= 0 || rp.met <= rp.max
}

// done returns the rendered lines, with the truncation notice when the
// cap dropped some.
func (rp *report) done() []string {
	if dropped := rp.met - len(rp.lines); dropped > 0 {
		return append(rp.lines, truncated(dropped, "violations"))
	}
	return rp.lines
}

// --- point-level properties of runs -------------------------------------

// Nonfaulty reports i ∈ N at p (a run-level property).
func (s *System) Nonfaulty(i model.AgentID, p Point) bool {
	return s.Runs[p.Run].Pattern.Nonfaulty(i)
}

// Exists reports ∃v at p: some agent started with initial preference v.
func (s *System) Exists(v model.Value, p Point) bool {
	inits := s.Runs[p.Run].inits
	return v == model.One && inits != 0 || v == model.Zero && inits != 1<<uint(s.N)-1
}

// DecidedVal returns decided_i at p: the value agent i has decided by time
// p.Time, or None.
func (s *System) DecidedVal(i model.AgentID, p Point) model.Value {
	if d := s.labels.of(p.Run)[i]; d.by(d.v, p.Time) {
		return d.v
	}
	return model.None
}

// JustDecided reports jdecided_i = v at p: agent i decided v exactly in
// round p.Time.
func (s *System) JustDecided(i model.AgentID, v model.Value, p Point) bool {
	return s.labels.of(p.Run)[i].in(v, p.Time)
}

// Deciding reports deciding_i = v at p: agent i is undecided at p and its
// action in round p.Time+1 is decide(v). At the final time of a run it is
// false (nothing is recorded beyond the horizon; the paper's protocols
// have all decided by then).
func (s *System) Deciding(i model.AgentID, v model.Value, p Point) bool {
	return s.labels.of(p.Run)[i].in(v, p.Time+1)
}

// Ledger fills res with run's record as the engine keeps one, minus the
// state trace: its pattern, initial preferences and traffic, and each
// agent's actions, decision and decision round, read through the
// labelling. res's slices are reused.
func (s *System) Ledger(run int, res *engine.Result) {
	r := s.Runs[run]
	*res = engine.Result{N: s.N, Horizon: s.Horizon, Pattern: r.Pattern, Stats: *r.Stats,
		Inits: res.Inits[:0], Actions: res.Actions[:0], Decision: res.Decision[:0], DecisionRound: res.DecisionRound[:0]}
	for i, d := range s.labels.of(run) {
		res.Inits = append(res.Inits, r.Init(model.AgentID(i)))
		res.Decision, res.DecisionRound = append(res.Decision, d.v), append(res.DecisionRound, int(d.round))
	}
	for m := range s.Horizon {
		var row []model.Action
		if m < cap(res.Actions) {
			row = res.Actions[:m+1][m][:0]
		}
		for i := range model.AgentID(s.N) {
			row = append(row, s.labels.act(i, m, run))
		}
		res.Actions = append(res.Actions, row)
	}
}

// NoDecidedN reports no-decided_N(v) at p: no nonfaulty agent has decided
// v by time p.Time.
func (s *System) NoDecidedN(v model.Value, p Point) bool {
	for i := 0; i < s.N; i++ {
		id := model.AgentID(i)
		if s.Nonfaulty(id, p) && s.DecidedVal(id, p) == v {
			return false
		}
	}
	return true
}

// Points calls fn for every point of the system with time ≤ maxTime
// (maxTime < 0 means the full horizon).
func (s *System) Points(maxTime int, fn func(Point)) {
	if maxTime < 0 || maxTime > s.Horizon {
		maxTime = s.Horizon
	}
	for r := range s.Runs {
		for m := 0; m <= maxTime; m++ {
			fn(Point{Run: r, Time: m})
		}
	}
}

// truncated renders the standard truncation notice the checkers append
// when a violation cap cuts the report short.
func truncated(n int, what string) string {
	return fmt.Sprintf("... and %d more %s (truncated)", n, what)
}
