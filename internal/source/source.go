// Package source provides lazy, pull-style scenario generation for the
// Runner's streaming entry points (Runner.StreamFrom, Runner.RunSource).
//
// The paper's optimality results are quantified over *all* failure
// patterns in SO(t) or crash(t); checking them exhaustively means sweeps
// whose scenario counts grow as 2^(n·t·horizon). An eager []Scenario
// materializes that whole space before the first run executes. A Source
// instead yields scenarios one at a time, so a sweep's memory footprint
// is the Runner's reordering window — O(parallelism), not O(count) — and
// the exhaustive-check axis scales with hardware rather than RAM.
//
// The package has three layers:
//
//   - pattern generators wrapping internal/adversary's pull-style
//     iterators (SO, Crash);
//   - scenario generators pairing patterns with initial preferences
//     (CrossInits for the exhaustive pattern × 2^n-inits product,
//     WithInits for a fixed vector, RandomScenarios for the randomized
//     experiment workload);
//   - combinators over scenario sources (FromSlice, Limit, Filter,
//     Collect).
//
// All constructors validate bounds and return errors; nothing in this
// package panics on oversized sweeps (the guarantee the deprecated
// adversary.Enumerate* wrappers lack). Sources are single-consumer and
// not safe for concurrent use, matching the Runner's contract.
package source

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/model"
)

// Source is a pull-style stream of scenarios; see core.Source for the
// contract. Everything this package returns satisfies it.
type Source = core.Source

// Patterns is a pull-style stream of failure patterns. Next returns the
// next pattern or false when exhausted; Count reports the total number of
// patterns the stream will produce, if known. The returned pattern may be
// reused by the iterator between calls — Clone it if it must be retained
// (the scenario generators in this package do).
type Patterns interface {
	Next() (*model.Pattern, bool)
	Count() (int64, bool)
}

// SO returns the exhaustive stream of SO(t) failure patterns over n
// agents and the given horizon, in the adversary package's canonical
// enumeration order. It fails when the sweep's bounds are rejected.
func SO(n, t, horizon int, opts adversary.Options) (Patterns, error) {
	return adversary.NewSOPatterns(n, t, horizon, opts)
}

// Crash returns the exhaustive stream of crash(t) failure patterns over n
// agents and the given horizon, in canonical enumeration order.
func Crash(n, t, horizon int) (Patterns, error) {
	return adversary.NewCrashPatterns(n, t, horizon)
}

// crossInits crosses every pattern with every initial-preference vector.
type crossInits struct {
	patterns Patterns
	n        int
	vectors  int64 // 2^n
	// rows holds init vector m at [m·n, (m+1)·n), appended from gen when
	// the product first reaches m and shared read-only by every pattern.
	rows []model.Value
	gen  *adversary.InitVectors
	// pat is the open pattern as the stream returned it, shared its clone
	// (made at its first scenario), next its next vector; vectors: none.
	pat, shared *model.Pattern
	next        int64
	total       int64
	hasTotal    bool
	// keep, when set, drops a pattern before it is cloned or crossed
	// (Quotient sets it).
	keep func(*model.Pattern) bool
}

// CrossInits returns the product stream pattern × initial vector: every
// pattern from the stream crossed with all 2^n assignments of initial
// preferences to the n agents, inits varying fastest — the run space the
// paper's exhaustive claims quantify over, in the enumeration order the
// eager call sites use. Each pattern is cloned once and shared read-only
// by its 2^n scenarios; inits are rows of one table shared read-only by
// every pattern — copy one before writing to it. Stride skips through the
// product (core.SkipSource) without building what it discards.
func CrossInits(patterns Patterns, n int) (Source, error) {
	gen, err := adversary.NewInitVectors(n)
	if err != nil {
		return nil, err
	}
	vectors, _ := gen.Count()
	src := &crossInits{patterns: patterns, n: n, vectors: vectors, gen: gen, next: vectors}
	if c, ok := patterns.Count(); ok && (c == 0 || vectors <= math.MaxInt64/c) {
		src.total, src.hasTotal = c*vectors, true
	}
	return src, nil
}

func (s *crossInits) Next() (core.Scenario, bool) {
	if !s.open() {
		return core.Scenario{}, false
	}
	if s.shared == nil {
		// One clone per pattern: the stream will mutate pat, and the
		// scenarios built from it outlive this call.
		s.shared = s.pat.Clone()
	}
	n := int(s.next) * s.n
	for len(s.rows) <= n {
		v, _ := s.gen.Next()
		s.rows = append(s.rows, v...)
	}
	s.next++
	return core.Scenario{Pattern: s.shared, Inits: s.rows[n : n+s.n : n+s.n]}, true
}

// Skip passes over k scenarios without building them: init vectors by
// arithmetic, whole patterns uncloned, dropping what keep drops.
func (s *crossInits) Skip(k int64) int64 {
	var done int64
	for done < k && s.open() {
		step := min(k-done, s.vectors-s.next)
		s.next += step
		done += step
	}
	return done
}

// open pulls the next kept pattern once the open one is done; false when
// the patterns ran out.
func (s *crossInits) open() bool {
	for s.next == s.vectors {
		p, ok := s.patterns.Next()
		if !ok {
			return false
		}
		if s.keep == nil || s.keep(p) {
			s.pat, s.shared, s.next = p, nil, 0
		}
	}
	return true
}

func (s *crossInits) Count() (int64, bool) { return s.total, s.hasTotal }

// withInits pairs every pattern with one fixed initial vector.
type withInits struct {
	patterns Patterns
	inits    []model.Value
}

// WithInits returns the stream pairing every pattern with the same
// initial-preference vector. The vector is shared read-only by all
// scenarios; patterns are cloned.
func WithInits(patterns Patterns, inits []model.Value) Source {
	return &withInits{patterns: patterns, inits: inits}
}

func (s *withInits) Next() (core.Scenario, bool) {
	p, ok := s.patterns.Next()
	if !ok {
		return core.Scenario{}, false
	}
	return core.Scenario{Pattern: p.Clone(), Inits: s.inits}, true
}

func (s *withInits) Count() (int64, bool) { return s.patterns.Count() }

// randomScenarios draws a random pattern and a random init vector per
// scenario.
type randomScenarios struct {
	rng      *rand.Rand
	n, t     int
	horizon  int
	dropProb float64
	remain   int64
	bounded  bool
	total    int64
}

// RandomScenarios returns a stream of count random scenarios: a random
// SO(t) pattern followed by n random initial preferences per scenario,
// drawn lazily from the rng in exactly the order the experiments' eager
// generation loops draw them — so a lazy sweep consumes the rng
// identically to the slice it replaces. count < 0 means unbounded.
func RandomScenarios(rng *rand.Rand, n, t, horizon int, dropProb float64, count int64) Source {
	return &randomScenarios{
		rng: rng, n: n, t: t, horizon: horizon, dropProb: dropProb,
		remain: count, bounded: count >= 0, total: count,
	}
}

func (s *randomScenarios) Next() (core.Scenario, bool) {
	if s.bounded {
		if s.remain <= 0 {
			return core.Scenario{}, false
		}
		s.remain--
	}
	pat := adversary.RandomSO(s.rng, s.n, s.t, s.horizon, s.dropProb)
	inits := make([]model.Value, s.n)
	for i := range inits {
		inits[i] = model.Value(s.rng.Intn(2))
	}
	return core.Scenario{Pattern: pat, Inits: inits}, true
}

func (s *randomScenarios) Count() (int64, bool) { return s.total, s.bounded }

// FromSlice adapts an eager scenario slice to the Source interface; the
// bridge from the batch world into the streaming one.
func FromSlice(scenarios []core.Scenario) Source {
	return core.FromScenarios(scenarios)
}

// Limit truncates the source after max scenarios; the standard way to
// bound an unbounded generator. max < 0 is treated as 0 (an empty
// source). The truncated count is min(count, max) when the inner count
// is known, and stays unknown otherwise (an unknown-size source may end
// before the limit).
func Limit(src Source, max int64) Source {
	if max < 0 {
		max = 0
	}
	return &limitSource{src: src, remain: max, max: max}
}

type limitSource struct {
	src    Source
	remain int64
	max    int64 // the immutable truncation bound Count reports against
}

func (s *limitSource) Next() (core.Scenario, bool) {
	if s.remain <= 0 {
		return core.Scenario{}, false
	}
	sc, ok := s.src.Next()
	if !ok {
		s.remain = 0
		return core.Scenario{}, false
	}
	s.remain--
	return sc, true
}

func (s *limitSource) Count() (int64, bool) {
	c, ok := s.src.Count()
	if !ok {
		return 0, false
	}
	if c > s.max {
		return s.max, true
	}
	return c, true
}

// Filter passes through only the scenarios keep accepts. The count
// becomes unknown: how many survive cannot be predicted without running
// the sweep.
func Filter(src Source, keep func(core.Scenario) bool) Source {
	return &filterSource{src: src, keep: keep}
}

type filterSource struct {
	src  Source
	keep func(core.Scenario) bool
}

func (s *filterSource) Next() (core.Scenario, bool) {
	for {
		sc, ok := s.src.Next()
		if !ok {
			return core.Scenario{}, false
		}
		if s.keep(sc) {
			return sc, true
		}
	}
}

func (s *filterSource) Count() (int64, bool) { return 0, false }

// Collect drains the source into a slice — the inverse of FromSlice, for
// call sites that need the same scenarios replayed against several stacks
// (the run-by-run correspondence the paper's dominance order is defined
// over). It refuses unbounded sources.
func Collect(src Source) ([]core.Scenario, error) {
	c, ok := src.Count()
	if !ok {
		return nil, fmt.Errorf("source: refusing to collect a source of unknown size; bound it with Limit first")
	}
	// Cap the preallocation: a representable count can still exceed what
	// make can allocate, and growing past the cap is append's job.
	if c > 1<<20 {
		c = 1 << 20
	}
	out := make([]core.Scenario, 0, c)
	for sc, ok := src.Next(); ok; sc, ok = src.Next() {
		out = append(out, sc)
	}
	return out, nil
}
