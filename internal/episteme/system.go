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
//     as a runnable ActionProtocol. It has no loop of its own: it is
//     Horizon+1 BuildSystem calls, each over the table grown so far.
//
// The checker is built in three sharded layers:
//
//   - Enumeration: runs stream from internal/source's pattern × inits
//     product through core.Runner.RunSource — the same worker pool,
//     cancellation, and ordering machinery every other sweep in the
//     repository uses. Action decisions are memoized per local state
//     across runs, so the thousands of runs that revisit a state pay for
//     its analysis once. Over an exchange with model.KeyPermuter (Efip,
//     Emin, Ebasic) only one run per agent-permutation orbit is executed
//     and the rest are rebuilt by relabeling (quotient.go); the builders
//     decide.
//   - Representation: local states are interned into dense class ids per
//     (time, agent) slot at index-build time; every knowledge query after
//     that is integer indexing, never string hashing. Index slots are
//     built in parallel. A system expanded from the symmetry quotient is
//     time-layered: before the horizon its index has one row per prefix
//     unit — the runs that differ only in the last round's omissions,
//     which nothing before time Horizon can depend on — instead of one
//     per run (System, "Rows").
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
// Deprecated: the frozen benchmark harness still calls it (ROADMAP 2(d)).
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
	// Runs holds every enumerated run.
	Runs []*engine.Result

	// weights, when non-nil, marks a symmetry-quotiented system: Runs are
	// the canonical orbit representatives of the sweep and weights[r] is
	// run r's orbit size (source.Quotient). A quotiented system is an
	// intermediate — ExpandQuotient rebuilds the full system from it; the
	// checkers refuse to run on one, since every knowledge query would
	// silently ignore the collapsed runs.
	weights []int64

	// par is the checker worker count (resolved, >= 1).
	par int

	// Rows. unitOf, when non-nil, marks a time-layered system (only
	// ExpandQuotient builds one): unitOf[run] is the run's prefix unit —
	// the runs sharing its initial vector, faulty set and every drop sent
	// before the last round. The context is synchronous and the engine
	// deterministic, so a unit's runs share every local state at every time
	// < Horizon and the whole ledger (Inits, Decision, DecisionRound,
	// Actions — the last recorded action is taken on a time-(Horizon−1)
	// state); only their time-Horizon states differ. Units are numbered by
	// first appearance in run order: unitFirst[u] is unit u's lowest run,
	// unitRuns[u] its runs, ascending. The index slots of times < Horizon
	// of a layered system have one row per unit instead of one per run;
	// everywhere else — the last time slice, and every slot of a system
	// with unitOf nil — a row is a run. layered, rowOf and rowRun are the
	// whole of that knowledge; docs/architecture.md, "Time-layered
	// expansion: prefix units". The time-Horizon slots, the one slice whose
	// rows are runs in every system, are interned on first read (lastLayer).
	unitOf    []int32
	unitFirst []int32
	unitRuns  [][]int

	// Interned local-state index. A slot is a (time, agent) pair,
	// slot = m*N + i; within a slot, rows carrying the same local state
	// form a class identified by a dense int:
	//
	//	classOf[slot][row]    → the row's class id in the slot
	//	classRuns[slot][c]    → the rows of class c, ascending
	//	classKey[slot][c]     → the class's local-state key
	//	classGlobal[slot][c]  → system-wide dense id of that key, shared
	//	                        across slots (cross-time state identity)
	//
	// Class ids are by first appearance in run order either way: a class's
	// first run is always its unit's first run. The time-Horizon slots are
	// nil until lastLayer interns them from the producer's lastRows.
	classOf     [][]int32
	classRuns   [][][]int
	classKey    [][]string
	classGlobal [][]int32
	lastOnce    sync.Once
	lastRows    func(slot int) slotRows

	// cn lazily caches the per-time condensations of the C_N
	// accessibility graph; cnMu guards the map, each slot builds once.
	cnMu sync.Mutex
	cn   map[int]*cnSlot

	// runFaulty and unitFaulty hold every row's faulty set as a bitmask
	// over agents, per run and per unit, each filled on first use
	// (faultyMasks): the C_N graph walk and the guard fold read it once per
	// edge, where Runs[r].Pattern is a pointer chase.
	runFaulty, unitFaulty faultyTable
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
// any other exchange (Ereport) every scenario is run.
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
// once across a fleet and the stripe ordinals are quotient ordinals.
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
		core.WithExecutor(newMemoExec(n)),
		core.WithParallelism(o.par))
	// A quotiented source annotates each representative with its orbit
	// size as the scenario Weight; RunSource drops scenarios, so collect
	// run results and weights side by side from the stream (same ordering
	// and fail-fast semantics as RunSource, and its capped preallocation).
	var runs []*engine.Result
	if count, ok := src.Count(); ok && count >= 0 {
		runs = make([]*engine.Result, 0, min(count, 1<<20))
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
		runs = append(runs, oc.Result)
		if o.quotient {
			weights = append(weights, oc.Scenario.EffectiveWeight())
		}
	}
	if rctx.Err() != nil {
		return nil, context.Cause(rctx)
	}

	sys := &System{N: n, T: c.T, Horizon: horizon, Runs: runs, weights: weights, par: o.par}
	if err := sys.buildIndex(ctx); err != nil {
		return nil, err
	}
	return sys, nil
}

// buildIndex interns the local states of every time from the runs' state
// traces (index.go's direct-build producer).
func (s *System) buildIndex(ctx context.Context) error {
	n := s.N
	// The memoizing executor aliases identical state rows across runs, so
	// group runs by row identity first, once per time: a slot's memo code
	// is the run's row group, and the keys are rendered once per distinct
	// row instead of once per run.
	rowOf := make([][]int32, s.Horizon+1)
	rowCount := make([]int, s.Horizon+1)
	err := s.parallel(ctx, s.Horizon+1, func(m int) {
		groups := make([]int32, len(s.Runs))
		rowIdx := make(map[*model.State]int32, len(s.Runs))
		for r, res := range s.Runs {
			head := &res.States[m][0]
			g, ok := rowIdx[head]
			if !ok {
				g = int32(len(rowIdx))
				rowIdx[head] = g
			}
			groups[r] = g
		}
		rowOf[m], rowCount[m] = groups, len(rowIdx)
	})
	if err != nil {
		return err
	}
	_, err = s.indexed(ctx, func(slot int) slotRows {
		m, i := slot/n, slot%n
		groups := rowOf[m]
		return slotRows{
			n:     len(s.Runs),
			codes: rowCount[m],
			code:  func(r int) int { return int(groups[r]) },
			key:   func(r int) (string, error) { return s.Runs[r].States[m][i].Key(), nil },
		}
	})
	return err
}

// slot returns the index slot of agent i at time m.
func (s *System) slot(i model.AgentID, m int) int { return m*s.N + int(i) }

// readSlot is slot for a reader of the index: at time Horizon it interns
// the last layer first.
func (s *System) readSlot(i model.AgentID, m int) int {
	if m == s.Horizon {
		s.lastLayer()
	}
	return s.slot(i, m)
}

// layered reports whether the time-m index slots have one row per prefix
// unit rather than one per run.
func (s *System) layered(m int) bool { return s.unitOf != nil && m < s.Horizon }

// rowCount returns the number of index rows at time m.
func (s *System) rowCount(m int) int {
	if s.layered(m) {
		return len(s.unitFirst)
	}
	return len(s.Runs)
}

// rowOf returns the time-m index row of a run.
func (s *System) rowOf(m, run int) int {
	if s.layered(m) {
		return int(s.unitOf[run])
	}
	return run
}

// rowRun returns the lowest run of a time-m index row. A predicate that
// reads only a run's ledger, faulty set and states before the horizon —
// all that the knowledge-based programs and the C_N guard ask about —
// holds at a row's first run iff it holds at all of its runs.
func (s *System) rowRun(m, row int) int {
	if s.layered(m) {
		return int(s.unitFirst[row])
	}
	return row
}

// classAt returns the dense class id of agent i's local state at (run, m).
func (s *System) classAt(i model.AgentID, m, run int) int32 {
	return s.classOf[s.readSlot(i, m)][s.rowOf(m, run)]
}

// classCount returns the number of classes in agent i's time-m slot.
func (s *System) classCount(i model.AgentID, m int) int {
	return len(s.classKey[s.readSlot(i, m)])
}

// rowsOfClass returns the rows of class c in agent i's time-m slot,
// ascending. The returned slice is shared; do not mutate.
func (s *System) rowsOfClass(i model.AgentID, m int, c int32) []int {
	return s.classRuns[s.readSlot(i, m)][c]
}

// Key returns agent i's local-state key at point p, from the index:
// merged, cached and expanded Systems carry no state traces.
func (s *System) Key(i model.AgentID, p Point) string {
	if s.classKey == nil {
		return s.Runs[p.Run].States[p.Time][i].Key()
	}
	return s.classKey[s.readSlot(i, p.Time)][s.classAt(i, p.Time, p.Run)]
}

// runsOfClass returns the runs of class c in agent i's time-m slot,
// ascending. The returned slice may be shared; do not mutate.
func (s *System) runsOfClass(i model.AgentID, m int, c int32) []int {
	rows := s.rowsOfClass(i, m, c)
	if !s.layered(m) {
		return rows
	}
	// Units interleave in run order: their concatenation needs sorting.
	runs := s.runsOfUnits(rows)
	slices.Sort(runs)
	return runs
}

// Class returns the points agent i cannot distinguish from p, in run
// order.
func (s *System) Class(i model.AgentID, p Point) []Point {
	runs := s.runsOfClass(i, p.Time, s.classAt(i, p.Time, p.Run))
	out := make([]Point, len(runs))
	for k, r := range runs {
		out[k] = Point{Run: r, Time: p.Time}
	}
	return out
}

// Knows evaluates K_i φ at p: φ holds at every point i cannot distinguish
// from p. φ may be any function of the point, so on a layered slot every
// run of every unit of the class is asked.
func (s *System) Knows(i model.AgentID, p Point, phi func(Point) bool) bool {
	rows := s.rowsOfClass(i, p.Time, s.classAt(i, p.Time, p.Run))
	if !s.layered(p.Time) {
		for _, r := range rows {
			if !phi(Point{Run: r, Time: p.Time}) {
				return false
			}
		}
		return true
	}
	for _, u := range rows {
		for _, r := range s.unitRuns[u] {
			if !phi(Point{Run: r, Time: p.Time}) {
				return false
			}
		}
	}
	return true
}

// knowsOfRows evaluates K_i φ at p for a φ that is constant on a row (see
// rowRun): one question per row of the class, put to the row's first run.
func (s *System) knowsOfRows(i model.AgentID, p Point, phi func(Point) bool) bool {
	for _, row := range s.rowsOfClass(i, p.Time, s.classAt(i, p.Time, p.Run)) {
		if !phi(Point{Run: s.rowRun(p.Time, row), Time: p.Time}) {
			return false
		}
	}
	return true
}

// foldClasses evaluates pred once at every row of time ≤ maxTime for
// every agent and folds it per indistinguishability class:
// tables[slot][c] reports whether pred holds at some point of class c
// (exists) or at every point of it (!exists) — ¬K_i¬pred and K_i pred, as
// functions of the local state. This is what keeps the checkers linear in
// the number of points: a condition on agent i's class is computed in one
// pass over the rows and then read per point, never re-derived by
// scanning the class from each of its members. pred is asked at each
// row's first run (rowRun) and given the row's faulty set as a mask, so
// it must be a row function: it may read the ledger, the faulty set and
// the states before the horizon (at time Horizon rows are runs). Slots
// fold in parallel; passing the previous result back as tables reuses its
// storage.
func (s *System) foldClasses(ctx context.Context, tables [][]bool, maxTime int, exists bool, pred func(i model.AgentID, q Point, faulty uint64) bool) ([][]bool, error) {
	nSlots := (maxTime + 1) * s.N
	if tables == nil {
		tables = make([][]bool, nSlots)
	}
	if maxTime >= s.Horizon {
		s.lastLayer()
	}
	err := s.parallel(ctx, nSlots, func(slot int) {
		i, m := model.AgentID(slot%s.N), slot/s.N
		if tables[slot] == nil {
			tables[slot] = make([]bool, s.classCount(i, m))
		}
		table, faulty := tables[slot], s.faultyMasks(m)
		for c := range table {
			table[c] = !exists
		}
		for row, c := range s.classOf[slot] {
			if table[c] != exists && pred(i, Point{Run: s.rowRun(m, row), Time: m}, faulty[row]) == exists {
				table[c] = exists
			}
		}
	})
	return tables, err
}

// faultyAt reports whether agent i is in the faulty set mask.
func faultyAt(mask uint64, i model.AgentID) bool { return mask>>uint(i)&1 != 0 }

// screen asks fails once per row of every time ≤ maxTime, on the worker
// pool, for the agents (bit i for agent i) at which the row fails — a row
// function (see foldClasses) — then calls add at every point so marked,
// in the canonical (run, time, agent) order, with the point's row.
func (s *System) screen(ctx context.Context, maxTime int, fails func(m, row int) uint64, add func(i model.AgentID, m, run, row int)) error {
	const chunk = 1024
	bad := make([][]uint64, maxTime+1)
	var marked []int // the times with a failing row
	for m := range bad {
		bad[m] = make([]uint64, s.rowCount(m))
		err := s.parallel(ctx, (len(bad[m])+chunk-1)/chunk, func(k int) {
			rows := bad[m][k*chunk : min(k*chunk+chunk, len(bad[m]))]
			for j := range rows {
				rows[j] = fails(m, k*chunk+j)
			}
		})
		if err != nil {
			return err
		}
		if slices.ContainsFunc(bad[m], func(b uint64) bool { return b != 0 }) {
			marked = append(marked, m)
		}
	}
	for r := 0; r < len(s.Runs) && len(marked) > 0; r++ {
		for _, m := range marked {
			row := s.rowOf(m, r)
			for mask := bad[m][row]; mask != 0; mask &= mask - 1 {
				add(model.AgentID(bits.TrailingZeros64(mask)), m, r, row)
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
	for _, iv := range s.Runs[p.Run].Inits {
		if iv == v {
			return true
		}
	}
	return false
}

// DecidedVal returns decided_i at p: the value agent i has decided by time
// p.Time, or None.
func (s *System) DecidedVal(i model.AgentID, p Point) model.Value {
	res := s.Runs[p.Run]
	if r := res.Round(i); r > 0 && r <= p.Time {
		return res.Decided(i)
	}
	return model.None
}

// JustDecided reports jdecided_i = v at p: agent i decided v exactly in
// round p.Time.
func (s *System) JustDecided(i model.AgentID, v model.Value, p Point) bool {
	res := s.Runs[p.Run]
	return res.Round(i) == p.Time && res.Decided(i) == v
}

// Deciding reports deciding_i = v at p: agent i is undecided at p and its
// action in round p.Time+1 is decide(v). At the final time of a run it is
// false (nothing is recorded beyond the horizon; the paper's protocols
// have all decided by then).
func (s *System) Deciding(i model.AgentID, v model.Value, p Point) bool {
	res := s.Runs[p.Run]
	return res.Round(i) == p.Time+1 && res.Decided(i) == v
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

// FaultyAll reports whether every agent in mask (a bitmask over agents) is
// faulty at p.
func (s *System) FaultyAll(mask uint64, p Point) bool {
	pat := s.Runs[p.Run].Pattern
	for i := 0; i < s.N; i++ {
		if mask&(1<<uint(i)) != 0 && pat.Nonfaulty(model.AgentID(i)) {
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
