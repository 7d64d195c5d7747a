package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/adversary"
	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/spec"
)

// orbitStacks are the registered stacks over a model.KeyPermuter exchange:
// the ones RunShard runs through the orbit memo.
var orbitStacks = []string{"fip", "fip-nock", "fip+pmin", "min", "basic"}

// perRun hides every optional interface of the wrapped exchange —
// model.KeyPermuter among them — so RunShard over it executes every
// scenario: the reference the orbit memo is compared against.
type perRun struct{ model.Exchange }

// perRunStack is st with its exchange's KeyPermuter hidden. The exchange
// keeps its name, so cache keys are st's.
func perRunStack(st Stack) Stack {
	st.Exchange = perRun{st.Exchange}
	return st
}

// patternStream is what adversary's SO and crash iterators provide.
type patternStream interface {
	Next() (*model.Pattern, bool)
	Count() (int64, bool)
}

// crossSource crosses every pattern with every initial vector, inits
// varying fastest: source.CrossInits, which core cannot import. Like it,
// every scenario's inits is a row of one table shared by every pattern.
type crossSource struct {
	pats patternStream
	n    int
	cur  *model.Pattern
	rows [][]model.Value
	next int
}

func (s *crossSource) Next() (Scenario, bool) {
	if s.rows == nil {
		inits, _ := adversary.NewInitVectors(s.n)
		for in, ok := inits.Next(); ok; in, ok = inits.Next() {
			s.rows = append(s.rows, slices.Clone(in))
		}
		s.next = len(s.rows)
	}
	if s.next == len(s.rows) {
		p, ok := s.pats.Next()
		if !ok {
			return Scenario{}, false
		}
		s.cur, s.next = p.Clone(), 0
	}
	s.next++
	return Scenario{Pattern: s.cur, Inits: s.rows[s.next-1]}, true
}

func (s *crossSource) Count() (int64, bool) {
	c, ok := s.pats.Count()
	return c << s.n, ok
}

// sweep names an exhaustive enumeration: SO(t), SO(t) with self-drops, or
// crash(t), every stride-th scenario of it when stride > 1.
type sweep struct {
	n, t        int
	crash, self bool
	stride      int
}

func (c sweep) String() string {
	kind := "SO"
	switch {
	case c.crash:
		kind = "crash"
	case c.self:
		kind = "SO+self"
	}
	s := fmt.Sprintf("%s n=%d t=%d", kind, c.n, c.t)
	if c.stride > 1 {
		s += fmt.Sprintf(" 1/%d", c.stride)
	}
	return s
}

// sweepScenarios holds each sweep's scenarios, enumerated once and shared
// read-only by the parallel subtests.
var sweepScenarios = struct {
	sync.Mutex
	m map[sweep][]Scenario
}{m: map[sweep][]Scenario{}}

// source returns the sweep's scenarios at the default horizon t+2, the
// one every registered stack runs at.
func (c sweep) source(tb testing.TB) Source {
	tb.Helper()
	sweepScenarios.Lock()
	defer sweepScenarios.Unlock()
	if scs, ok := sweepScenarios.m[c]; ok {
		return FromScenarios(scs)
	}
	var pats patternStream
	var err error
	if c.crash {
		pats, err = adversary.NewCrashPatterns(c.n, c.t, c.t+2)
	} else {
		pats, err = adversary.NewSOPatterns(c.n, c.t, c.t+2, adversary.Options{IncludeSelfDrops: c.self})
	}
	if err != nil {
		tb.Fatal(err)
	}
	var src Source = &crossSource{pats: pats, n: c.n}
	if c.stride > 1 {
		src, _ = Stride(src, 0, c.stride)
	}
	var scs []Scenario
	for sc, ok := src.Next(); ok; sc, ok = src.Next() {
		scs = append(scs, sc)
	}
	if want, _ := src.Count(); int64(len(scs)) != want {
		tb.Fatalf("%v enumerated %d scenarios, counted %d", c, len(scs), want)
	}
	sweepScenarios.m[c] = scs
	return FromScenarios(scs)
}

// equivarianceViolations runs every scenario of src and its relabeling by
// a permutation π drawn from the seed, and reports each scenario whose
// relabeled run is not its run relabeled: agent π(i) of the twin must take
// agent i's actions, decide its value in its round, and the traffic totals
// must be equal. This is the symmetry the orbit memo relies on.
func equivarianceViolations(tb testing.TB, st Stack, src Source, seed int64, max int) (checked int, out []string) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	buf := engine.NewBuffers()
	perm := make([]model.AgentID, st.N)
	for sc, ok := src.Next(); ok && len(out) < max; sc, ok = src.Next() {
		for i, p := range rng.Perm(st.N) {
			perm[i] = model.AgentID(p)
		}
		orig, err := engine.RunBuffered(st.Config(sc.Pattern, sc.Inits), buf)
		if err != nil {
			tb.Fatal(err)
		}
		twin, err := engine.RunBuffered(st.Config(sc.Pattern.Permute(perm), model.PermuteValues(sc.Inits, perm)), buf)
		if err != nil {
			tb.Fatal(err)
		}
		checked++
		if d := relabelDiff(orig, twin, perm); d != "" {
			out = append(out, fmt.Sprintf("%v inits %v relabeled by %v: %s", sc.Pattern, sc.Inits, perm, d))
		}
	}
	return checked, out
}

// relabelDiff describes the first way twin is not orig relabeled by perm.
func relabelDiff(orig, twin *engine.Result, perm []model.AgentID) string {
	if orig.Stats != twin.Stats {
		return fmt.Sprintf("stats %+v, relabeled run's %+v", orig.Stats, twin.Stats)
	}
	for i, p := range perm {
		if orig.Decision[i] != twin.Decision[p] || orig.DecisionRound[i] != twin.DecisionRound[p] {
			return fmt.Sprintf("agent %d decides %v in round %d, agent %d of the relabeled run %v in round %d",
				i, orig.Decision[i], orig.DecisionRound[i], p, twin.Decision[p], twin.DecisionRound[p])
		}
		for m := range orig.Actions {
			if orig.Actions[m][i] != twin.Actions[m][p] {
				return fmt.Sprintf("agent %d does %v at time %d, agent %d of the relabeled run %v",
					i, orig.Actions[m][i], m, p, twin.Actions[m][p])
			}
		}
	}
	return ""
}

// TestStacksAreEquivariant checks, for every stack the orbit memo serves,
// that relabeling a scenario's agents relabels its run, over exhaustive SO
// and crash sweeps at n=3 (t=1, 2) and n=4, t=1. SO at n=3,t=2 is taken
// one scenario in 32 (49,345 of 1,579,016, from every faulty-set block):
// the whole of it is 16M runs over the five stacks, over two minutes.
func TestStacksAreEquivariant(t *testing.T) {
	sweeps := []sweep{
		{n: 3, t: 1}, {n: 3, t: 2, stride: 32}, {n: 4, t: 1},
		{n: 3, t: 1, crash: true}, {n: 3, t: 2, crash: true}, {n: 4, t: 1, crash: true},
	}
	for _, name := range orbitStacks {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, c := range sweeps {
				st := MustStack(name, WithN(c.n), WithT(c.t))
				if _, ok := st.Exchange.(model.KeyPermuter); !ok {
					t.Fatalf("exchange %s has no model.KeyPermuter; the memo would not serve it", st.Exchange.Name())
				}
				src := c.source(t)
				checked, vs := equivarianceViolations(t, st, src, int64(c.n*10+c.t), 3)
				if len(vs) > 0 {
					t.Errorf("over %v: relabeling does not commute with the run:\n  %s", c, vs)
				}
				if want, _ := src.Count(); int64(checked) != want {
					t.Errorf("over %v: checked %d scenarios of %d", c, checked, want)
				}
			}
		})
	}
}

// leaderAction is Pmin with agent 0 as a leader that decides its own
// preference at time 1: it breaks the tie between agents by id.
type leaderAction struct{ model.ActionProtocol }

func (a leaderAction) Act(i model.AgentID, s model.State) model.Action {
	if i == 0 && s.Time() == 1 && !s.Decided().IsSet() {
		return model.Decide(s.Init())
	}
	return a.ActionProtocol.Act(i, s)
}

// TestEquivarianceCatchesIDTieBreak is the negative case: an action that
// favours an agent by id is reported, and the memo, which trusts the
// symmetry, then writes a different stream from the per-run reference —
// what the differential test below would catch.
func TestEquivarianceCatchesIDTieBreak(t *testing.T) {
	st := MustStack("min", WithN(3), WithT(1))
	st.Name = "min-leader"
	st.Action = leaderAction{st.Action}
	c := sweep{n: 3, t: 1}
	if _, vs := equivarianceViolations(t, st, c.source(t), 1, 1); len(vs) == 0 {
		t.Fatal("an action that breaks ties by agent id was not reported")
	}
	var memo, ref bytes.Buffer
	if _, err := NewRunner(st).RunShard(context.Background(), c.source(t), 0, 1, &memo); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(perRunStack(st)).RunShard(context.Background(), c.source(t), 0, 1, &ref); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(memo.Bytes(), ref.Bytes()) {
		t.Fatal("the memo reproduced a non-equivariant stack's stream; the differential test could not fail")
	}
}

// specOpts is the spec check every sweep surface runs.
func specOpts(st Stack) RunnerOption {
	return WithSpecCheck(spec.Options{RoundBound: st.Horizon(), ValidityAllAgents: true})
}

// runStripes runs the K stripes of src's sweep and returns their streams
// and summaries.
func runStripes(t *testing.T, r *Runner, src func() Source, k int) ([][]byte, []*ShardSummary) {
	t.Helper()
	streams := make([][]byte, k)
	sums := make([]*ShardSummary, k)
	for i := range k {
		var buf bytes.Buffer
		sum, err := r.RunShard(context.Background(), src(), i, k, &buf)
		if err != nil {
			t.Fatalf("RunShard %d/%d: %v", i, k, err)
		}
		streams[i], sums[i] = buf.Bytes(), sum
	}
	return streams, sums
}

// restripe cuts a 1-way stream into the k stripes RunShard writes for the
// same sweep, so one reference run serves every K.
func restripe(t *testing.T, whole []byte, k int) [][]byte {
	t.Helper()
	or, err := NewOutcomeReader(bytes.NewReader(whole))
	if err != nil {
		t.Fatal(err)
	}
	var recs []OutcomeRecord
	for rec, err := or.Next(); !errors.Is(err, io.EOF); rec, err = or.Next() {
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, *rec)
	}
	stripes := make([][]byte, k)
	for i := range k {
		hdr := or.Header()
		hdr.Shard, hdr.Shards, hdr.Count = i, k, StripeSize(hdr.Count, i, k)
		var stripe []OutcomeRecord
		for j := i; j < len(recs); j += k {
			stripe = append(stripe, recs[j])
		}
		var buf bytes.Buffer
		if _, err := WriteOutcomeStream(&buf, hdr, stripe); err != nil {
			t.Fatal(err)
		}
		stripes[i] = buf.Bytes()
	}
	return stripes
}

// orbitCount is the number of distinct agent-permutation orbits among the
// source's scenarios.
func orbitCount(src Source) int {
	var canon model.Canonicalizer
	keys := make(map[string]bool)
	for sc, ok := src.Next(); ok; sc, ok = src.Next() {
		canon.Canonicalize(sc.Pattern, sc.Inits)
		keys[string(canon.AppendRepresentativeKey(nil))] = true
	}
	return len(keys)
}

// differentialSweeps are the enumerations the memo is compared on: every
// one at n=2,3,4 t=1 whole, and at n=3,t=2 crash whole and SO one scenario
// in 128, from every faulty-set block.
var differentialSweeps = []sweep{
	{n: 2, t: 1}, {n: 3, t: 1}, {n: 4, t: 1}, {n: 3, t: 2, stride: 128},
	{n: 2, t: 1, crash: true}, {n: 3, t: 1, crash: true}, {n: 4, t: 1, crash: true}, {n: 3, t: 2, crash: true},
	{n: 2, t: 1, self: true}, {n: 3, t: 1, self: true},
}

// memoMode is how the K stripes of a sweep get their orbit memo.
type memoMode int

const (
	ownMemo        memoMode = iota // a fresh one per RunShard call, as ebashard's stripes
	sharedMemo                     // one (WithOrbitMemo), stripes run one after another
	concurrentMemo                 // one, stripes run concurrently, as ebaserve may serve them
)

func (m memoMode) String() string {
	return [...]string{"own memos", "one memo", "one memo, concurrent"}[m]
}

// countingExec counts the scenarios its substrate runs.
type countingExec struct {
	engine.Executor
	runs atomic.Int64
}

func (x *countingExec) Execute(cfg engine.Config, buf *engine.Buffers) (*engine.Result, error) {
	x.runs.Add(1)
	return x.Executor.Execute(cfg, buf)
}

// runMemoStripes runs the K stripes of src's sweep over st at parallelism
// par, each through its own Runner over a counting substrate, with the
// memos mode says, and returns their streams, summaries and engine runs.
func runMemoStripes(t *testing.T, st Stack, par int, mode memoMode, src func() Source, k int) ([][]byte, []*ShardSummary, []int64) {
	t.Helper()
	var memo *OrbitMemo
	if mode != ownMemo {
		memo = NewOrbitMemo(st)
	}
	got, sums, runs, errs := make([][]byte, k), make([]*ShardSummary, k), make([]int64, k), make([]error, k)
	stripe := func(i int) {
		x := &countingExec{Executor: engine.Sequential{}}
		var buf bytes.Buffer
		r := NewRunner(st, WithExecutor(x), WithParallelism(par), specOpts(st), WithOrbitMemo(memo))
		sums[i], errs[i] = r.RunShard(context.Background(), src(), i, k, &buf)
		got[i], runs[i] = buf.Bytes(), x.runs.Load()
	}
	var wg sync.WaitGroup
	for i := range k {
		if mode != concurrentMemo {
			stripe(i)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			stripe(i)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("RunShard %d/%d, parallelism %d, %v: %v", i, k, par, mode, err)
		}
	}
	return got, sums, runs
}

// TestRunShardOrbitMemoByteIdentical is the memo's differential test:
// for every stack it serves and every differential sweep, the K stripes
// RunShard writes at parallelism 1, 2 and 7 — each call with its own
// memo, with one memo shared one call after another, and with one shared
// by concurrent calls — are byte-identical to the per-run reference's,
// and so is the stream of a memo bounded to a few entries. Each call's
// Relabeled is exactly the records its own engine did not run, and at
// parallelism 1 the engine runs exactly one member per orbit of the
// whole sweep when one call or one shared memo sees it all.
func TestRunShardOrbitMemoByteIdentical(t *testing.T) {
	ks, pars := []int{1, 3, 16}, []int{1, 2, 7}
	if raceEnabled {
		ks, pars = []int{1, 16}, []int{7}
	}
	for _, name := range orbitStacks {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, c := range differentialSweeps {
				st := MustStack(name, WithN(c.n), WithT(c.t))
				src := func() Source { return c.source(t) }
				label := fmt.Sprintf("%s over %v", name, c)
				orbits := int64(orbitCount(src()))
				whole, _ := runStripes(t, NewRunner(perRunStack(st), WithParallelism(2), specOpts(st)), src, 1)
				for _, k := range ks {
					want := restripe(t, whole[0], k)
					for _, par := range pars {
						modes := []memoMode{ownMemo, sharedMemo, concurrentMemo}
						if k == 1 {
							modes = modes[:1] // one stripe is one call: a shared memo is its own
						}
						for _, mode := range modes {
							got, sums, runs := runMemoStripes(t, st, par, mode, src, k)
							var executed int64
							for i := range k {
								if !bytes.Equal(got[i], want[i]) {
									t.Fatalf("%s: stripe %d/%d at parallelism %d, %v, differs from the per-run reference", label, i, k, par, mode)
								}
								if s := sums[i]; s.Executed != s.Records || s.CacheHits != 0 || s.Relabeled != s.Records-runs[i] {
									t.Fatalf("%s: stripe %d/%d at parallelism %d, %v: summary executed=%d hits=%d relabeled=%d records=%d; the engine ran %d",
										label, i, k, par, mode, s.Executed, s.CacheHits, s.Relabeled, s.Records, runs[i])
								}
								executed += runs[i]
							}
							if executed < orbits || par == 1 && (k == 1 || mode == sharedMemo) && executed != orbits {
								t.Fatalf("%s: K=%d at parallelism %d, %v: the engine ran %d times for %d orbits", label, k, par, mode, executed, orbits)
							}
						}
					}
				}

				// A memo bounded to a few entries fills early and passes the rest
				// through without canonicalizing: the same bytes.
				memo := NewOrbitMemo(st)
				memo.limit = 512 // three or four entries
				got, sums := runStripes(t, NewRunner(st, WithParallelism(2), specOpts(st), WithOrbitMemo(memo)), src, 1)
				if !bytes.Equal(got[0], whole[0]) {
					t.Fatalf("%s: the stream of a memo bounded to a few entries differs from the per-run reference", label)
				}
				if sums[0].Records > 64 && sums[0].Relabeled*2 > sums[0].Records {
					t.Fatalf("%s: a memo bounded to a few entries relabeled %d of %d records", label, sums[0].Relabeled, sums[0].Records)
				}
			}
		})
	}
}

// cachedPass runs src's whole sweep against a fresh cache.Open of dir and
// returns the stream, the summary and the store's counters at its close.
func cachedPass(t *testing.T, st Stack, src Source, dir string) ([]byte, *ShardSummary, cache.Stats) {
	t.Helper()
	store, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sum, err := NewRunner(st, WithParallelism(2), specOpts(st), WithResultCache(store, "orbit-test")).RunShard(context.Background(), src, 0, 1, &buf)
	if err != nil {
		t.Fatal(err)
	}
	stats := store.Stats()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sum, stats
}

// TestRunShardOrbitMemoUnderCache checks the memo sits under the result
// cache: against a cold and then a warm store, the memo's streams, cache
// traffic (hits, misses, puts, bytes written) and Executed/CacheHits are
// the per-run reference's, and a warm pass relabels nothing. It takes the
// differential sweeps at n ≤ 3.
func TestRunShardOrbitMemoUnderCache(t *testing.T) {
	for _, name := range orbitStacks {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, c := range differentialSweeps {
				if c.n > 3 {
					continue // the cache's JSON payloads make n=4 the slowest case by far
				}
				st := MustStack(name, WithN(c.n), WithT(c.t))
				label := fmt.Sprintf("%s over %v", name, c)
				refDir, memoDir := t.TempDir(), t.TempDir()
				for _, pass := range []string{"cold", "warm"} {
					wantStream, wantSum, wantStats := cachedPass(t, perRunStack(st), c.source(t), refDir)
					gotStream, gotSum, gotStats := cachedPass(t, st, c.source(t), memoDir)
					if !bytes.Equal(gotStream, wantStream) {
						t.Fatalf("%s, %s store: the memo's stream differs from the per-run reference", label, pass)
					}
					if gotStats != wantStats || gotSum.Executed != wantSum.Executed || gotSum.CacheHits != wantSum.CacheHits {
						t.Fatalf("%s, %s store: memo %+v executed=%d hits=%d, reference %+v executed=%d hits=%d", label, pass,
							gotStats, gotSum.Executed, gotSum.CacheHits, wantStats, wantSum.Executed, wantSum.CacheHits)
					}
					if pass == "warm" && (gotSum.Executed != 0 || gotSum.Relabeled != 0) {
						t.Fatalf("%s: a warm pass executed %d and relabeled %d records", label, gotSum.Executed, gotSum.Relabeled)
					}
				}
			}
		})
	}
}

// TestRunShardSharedOrbitMemo pins what ebaserve relies on when its
// sweeps share one memo per stack: the 16 stripes of fip n=3,t=1 and
// n=4,t=1, run one after another at parallelism 1, run the engine once
// per orbit (276 and 1,637); a shared memo that filled in one call is
// passed over by the next, which relabels as a fresh memo would; and a
// memo made for another stack is refused, naming both.
func TestRunShardSharedOrbitMemo(t *testing.T) {
	for _, tc := range []struct {
		c      sweep
		orbits int64
	}{{sweep{n: 3, t: 1}, 276}, {sweep{n: 4, t: 1}, 1637}} {
		st := MustStack("fip", WithN(tc.c.n), WithT(tc.c.t))
		_, _, runs := runMemoStripes(t, st, 1, sharedMemo, func() Source { return tc.c.source(t) }, 16)
		var executed int64
		for _, r := range runs {
			executed += r
		}
		if executed != tc.orbits {
			t.Fatalf("fip over %v: 16 stripes sharing a memo ran the engine %d times, want %d", tc.c, executed, tc.orbits)
		}
	}

	fip3 := MustStack("fip", WithN(3), WithT(1))
	src := func() Source { return sweep{n: 3, t: 1}.source(t) }
	memo := NewOrbitMemo(fip3)
	memo.limit = 512 // three or four entries
	_, first := runStripes(t, NewRunner(fip3, specOpts(fip3), WithOrbitMemo(memo)), src, 1)
	if !memo.full.Load() || first[0].Relabeled*2 > first[0].Records {
		t.Fatalf("a memo bounded to a few entries relabeled %d of %d records (full %v)", first[0].Relabeled, first[0].Records, memo.full.Load())
	}
	_, next := runStripes(t, NewRunner(fip3, specOpts(fip3), WithOrbitMemo(memo)), src, 1)
	if next[0].Relabeled != 1544-276 {
		t.Fatalf("the call after a shared memo filled relabeled %d records; a fresh memo relabels %d", next[0].Relabeled, 1544-276)
	}

	memo = NewOrbitMemo(fip3)
	for _, other := range []Stack{MustStack("fip", WithN(4), WithT(1)), MustStack("min", WithN(3), WithT(1))} {
		var buf bytes.Buffer
		_, err := NewRunner(other, WithOrbitMemo(memo)).RunShard(context.Background(), sweep{n: other.N, t: 1}.source(t), 0, 1, &buf)
		if err == nil || !strings.Contains(err.Error(), orbitIdentity(fip3)) || !strings.Contains(err.Error(), orbitIdentity(other)) {
			t.Fatalf("a memo made for %s served %s: %v", orbitIdentity(fip3), orbitIdentity(other), err)
		}
		if buf.Len() != 0 {
			t.Fatalf("a refused memo wrote %d bytes", buf.Len())
		}
	}
	if NewOrbitMemo(perRunStack(fip3)) != nil || NewOrbitMemo(MustStack("fip", WithN(orbitMemoMaxAgents+1), WithT(1))) != nil {
		t.Fatal("a memo was made for a stack RunShard runs per run")
	}
}
