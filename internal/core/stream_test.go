package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
)

// countingSource wraps a slice behind the Source interface and records how
// many scenarios have been pulled, so tests can assert the dispatcher
// never runs unboundedly ahead of emission.
type countingSource struct {
	mu        sync.Mutex
	scenarios []Scenario
	pulled    int
}

func (s *countingSource) Next() (Scenario, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pulled >= len(s.scenarios) {
		return Scenario{}, false
	}
	sc := s.scenarios[s.pulled]
	s.pulled++
	return sc, true
}

func (s *countingSource) Count() (int64, bool) { return int64(len(s.scenarios)), true }

func (s *countingSource) pulledSoFar() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pulled
}

// gateExecutor blocks the run of one scenario — identified by its Pattern
// pointer — until released, forcing out-of-order completion; every other
// scenario runs immediately.
type gateExecutor struct {
	inner   engine.Executor
	target  *model.Pattern
	release chan struct{}
}

func (g *gateExecutor) Name() string { return "gate" }

func (g *gateExecutor) Execute(cfg engine.Config, buf *engine.Buffers) (*engine.Result, error) {
	if cfg.Pattern == g.target {
		<-g.release
	}
	return g.inner.Execute(cfg, buf)
}

// streamScenarios builds count failure-free scenarios whose initial
// vectors encode their index in binary. Every scenario owns a distinct
// Pattern object, so tests can gate on one by pointer identity.
func streamScenarios(n, horizon, count int) []Scenario {
	out := make([]Scenario, count)
	for k := range out {
		inits := make([]model.Value, n)
		for i := range inits {
			inits[i] = model.Value((k >> i) & 1)
		}
		out[k] = Scenario{Pattern: model.NewPattern(n, horizon), Inits: inits}
	}
	return out
}

// TestStreamFromMatchesStream checks the source-driven ordered stream is
// outcome-for-outcome identical to the eager slice stream.
func TestStreamFromMatchesStream(t *testing.T) {
	st := MustStack("basic", WithN(4), WithT(1))
	scenarios := randomScenarios(9, 4, 1, 24)
	runner := NewRunner(st, WithParallelism(4))

	var fromSlice []RunOutcome
	for oc := range runner.Stream(context.Background(), scenarios) {
		fromSlice = append(fromSlice, oc)
	}
	var fromSource []RunOutcome
	for oc := range runner.StreamFrom(context.Background(), &countingSource{scenarios: scenarios}) {
		fromSource = append(fromSource, oc)
	}
	if len(fromSlice) != len(scenarios) || len(fromSource) != len(scenarios) {
		t.Fatalf("emitted %d (slice) / %d (source) outcomes, want %d", len(fromSlice), len(fromSource), len(scenarios))
	}
	for k := range fromSlice {
		if fromSlice[k].Index != k || fromSource[k].Index != k {
			t.Fatalf("outcome %d out of order", k)
		}
		if fromSlice[k].Err != nil || fromSource[k].Err != nil {
			t.Fatalf("outcome %d failed: %v / %v", k, fromSlice[k].Err, fromSource[k].Err)
		}
		assertSameRun(t, fmt.Sprintf("outcome %d", k), fromSlice[k].Result, fromSource[k].Result)
	}
}

// TestStreamFromChunkedHandoffMatchesRunBatch pins the stream across
// worker counts — one, two, more than a chunk boundary divides evenly —
// against the sequential batch: same outcomes, same order, and a sweep
// length that leaves a short last chunk.
func TestStreamFromChunkedHandoffMatchesRunBatch(t *testing.T) {
	st := MustStack("fip", WithN(4), WithT(1))
	scenarios := randomScenarios(29, 4, 1, 301)
	want, err := NewRunner(st).RunBatch(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{1, 2, 7} {
		label := fmt.Sprintf("parallelism %d", parallelism)
		runner := NewRunner(st, WithParallelism(parallelism))
		k := 0
		for oc := range runner.StreamFrom(context.Background(), &countingSource{scenarios: scenarios}) {
			if oc.Err != nil {
				t.Fatalf("%s: outcome %d: %v", label, oc.Index, oc.Err)
			}
			if oc.Index != k {
				t.Fatalf("%s: emitted index %d, want %d", label, oc.Index, k)
			}
			if oc.Scenario.Pattern != scenarios[k].Pattern {
				t.Fatalf("%s: outcome %d carries another scenario", label, k)
			}
			assertSameRun(t, fmt.Sprintf("%s outcome %d", label, k), want[k], oc.Result)
			k++
		}
		if k != len(scenarios) {
			t.Fatalf("%s: emitted %d outcomes, want %d", label, k, len(scenarios))
		}
	}
}

// TestRunSourceMatchesRunBatch checks the batch entry points agree.
func TestRunSourceMatchesRunBatch(t *testing.T) {
	st := MustStack("min", WithN(4), WithT(1))
	scenarios := randomScenarios(17, 4, 1, 16)
	runner := NewRunner(st, WithParallelism(3))
	batch, err := runner.RunBatch(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	sourced, err := runner.RunSource(context.Background(), &countingSource{scenarios: scenarios})
	if err != nil {
		t.Fatal(err)
	}
	if len(sourced) != len(batch) {
		t.Fatalf("RunSource returned %d results, RunBatch %d", len(sourced), len(batch))
	}
	for k := range batch {
		assertSameRun(t, fmt.Sprintf("result %d", k), batch[k], sourced[k])
	}
}

// TestStreamFromBoundedWindow holds the head scenario hostage and checks
// the dispatcher stops pulling from the source once the reordering window
// is full — the memory bound that lets unbounded sweeps stream. The window
// is written out (32 scenarios per worker, two workers): the test pins
// windowPerWorker's value, not its name.
func TestStreamFromBoundedWindow(t *testing.T) {
	const n, workers, window, count = 4, 2, 64, 256
	st := MustStack("min", WithN(n), WithT(1))
	scenarios := streamScenarios(n, st.Horizon(), count)
	gate := &gateExecutor{inner: engine.Sequential{}, target: scenarios[0].Pattern, release: make(chan struct{})}
	src := &countingSource{scenarios: scenarios}
	runner := NewRunner(st, WithExecutor(gate), WithParallelism(workers))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := runner.StreamFrom(ctx, src)

	// With scenario 0 blocked nothing can be emitted, so the dispatcher
	// must stall after pulling at most `window` scenarios. Give the
	// workers ample time to overrun if the bound is broken.
	deadline := time.After(2 * time.Second)
	for src.pulledSoFar() < window {
		select {
		case <-deadline:
			t.Fatalf("dispatcher stalled early: pulled %d of window %d", src.pulledSoFar(), window)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if got := src.pulledSoFar(); got > window {
		t.Fatalf("dispatcher pulled %d scenarios with the head blocked, window is %d", got, window)
	}

	close(gate.release)
	seen := 0
	for oc := range out {
		if oc.Err != nil {
			t.Fatalf("outcome %d: %v", oc.Index, oc.Err)
		}
		if oc.Index != seen {
			t.Fatalf("ordered stream emitted index %d, want %d", oc.Index, seen)
		}
		seen++
	}
	if seen != count {
		t.Fatalf("stream emitted %d outcomes, want %d", seen, count)
	}
}

// TestStreamFromEmptySource checks empty sources and slices close the
// channel immediately with no outcomes.
func TestStreamFromEmptySource(t *testing.T) {
	st := MustStack("min", WithN(3), WithT(1))
	runner := NewRunner(st, WithParallelism(4))
	for name, ch := range map[string]<-chan RunOutcome{
		"empty source": runner.StreamFrom(context.Background(), &countingSource{}),
		"empty slice":  runner.Stream(context.Background(), nil),
	} {
		select {
		case oc, ok := <-ch:
			if ok {
				t.Fatalf("%s emitted outcome %d", name, oc.Index)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s did not close", name)
		}
	}
}

// TestStreamFromCancelLeaksNoGoroutines cancels streams mid-flight and
// checks the worker pools wind down completely.
func TestStreamFromCancelLeaksNoGoroutines(t *testing.T) {
	st := MustStack("fip", WithN(5), WithT(2))
	scenarios := randomScenarios(31, 5, 2, 400)
	before := goruntime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		src := &countingSource{scenarios: scenarios}
		seen := 0
		for range NewRunner(st, WithParallelism(4)).StreamFrom(ctx, src) {
			seen++
			if seen == 3 {
				cancel()
			}
		}
		cancel()
		if seen >= len(scenarios) {
			t.Fatal("stream ran to completion despite cancellation")
		}
	}
	// The pools shut down asynchronously after the output channel closes;
	// poll briefly before declaring a leak.
	deadline := time.After(5 * time.Second)
	for {
		goruntime.GC()
		if goruntime.NumGoroutine() <= before+2 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("goroutines leaked: %d before, %d after", before, goruntime.NumGoroutine())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestCancellationCausePropagates checks outcomes and batch errors carry
// the batch context's cancellation cause, as RunOutcome.Err documents.
func TestCancellationCausePropagates(t *testing.T) {
	st := MustStack("min", WithN(4), WithT(1))
	cause := errors.New("sweep preempted by operator")

	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := NewRunner(st).Run(ctx, Scenario{
		Pattern: model.NewPattern(4, st.Horizon()),
		Inits:   make([]model.Value, 4),
	}); !errors.Is(err, cause) {
		t.Fatalf("Run on cause-cancelled context = %v, want %v", err, cause)
	}

	ctx, cancel = context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := NewRunner(st, WithParallelism(2)).
		RunBatch(ctx, streamScenarios(4, st.Horizon(), 8)); !errors.Is(err, cause) {
		t.Fatalf("RunBatch on cause-cancelled context = %v, want %v", err, cause)
	}

	// Plain cancellation still surfaces as context.Canceled.
	plain, cancelPlain := context.WithCancel(context.Background())
	cancelPlain()
	if _, err := NewRunner(st).RunBatch(plain, streamScenarios(4, st.Horizon(), 4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBatch on cancelled context = %v, want context.Canceled", err)
	}
}

// failingExecutor errors on the scenario whose inits encode failAt — with
// orbit set, on every scenario whose inits hold as many ones, failAt's
// orbit among failure-free scenarios — and counts every Execute call, so
// tests can assert how much work ran.
type failingExecutor struct {
	inner  engine.Executor
	failAt int
	orbit  bool
	err    error
	calls  atomic.Int64
}

func (f *failingExecutor) Name() string { return "failing" }

func (f *failingExecutor) Execute(cfg engine.Config, buf *engine.Buffers) (*engine.Result, error) {
	f.calls.Add(1)
	idx := 0
	for i, v := range cfg.Inits {
		idx |= int(v) << i
	}
	if idx == f.failAt || f.orbit && bits.OnesCount(uint(idx)) == bits.OnesCount(uint(f.failAt)) {
		return nil, f.err
	}
	return f.inner.Execute(cfg, buf)
}

// TestRunSourceFailsFast pins the fail-fast contract that replaced the
// episteme model checker's private worker pool (whose workers kept
// draining the whole configuration list after the first engine error):
// the first execution error cancels outstanding work via the context
// cause, so the source stops being pulled and the pool stops executing
// long before the sweep is exhausted.
func TestRunSourceFailsFast(t *testing.T) {
	const total, failAt, workers = 4096, 5, 4
	st := MustStack("min", WithN(12), WithT(0))
	boom := errors.New("boom")
	exec := &failingExecutor{inner: engine.Sequential{}, failAt: failAt, err: boom}
	src := &countingSource{scenarios: streamScenarios(12, 2, total)}
	runner := NewRunner(st, WithExecutor(exec), WithParallelism(workers))

	_, err := runner.RunSource(context.Background(), src)
	if !errors.Is(err, boom) {
		t.Fatalf("RunSource error = %v, want the executor's error", err)
	}
	// The ordered stream may have dispatched up to a reordering window of
	// scenarios beyond the failure before the error was emitted; anything
	// close to the full sweep means cancellation did not propagate.
	window := windowPerWorker * workers
	bound := failAt + 2*window + workers + 1
	if got := exec.calls.Load(); int(got) > bound {
		t.Errorf("executor ran %d scenarios after a failure at %d (bound %d): fail-slow", got, failAt, bound)
	}
	if pulled := src.pulledSoFar(); pulled > bound {
		t.Errorf("source was pulled %d times after a failure at %d (bound %d)", pulled, failAt, bound)
	}
}

// TestRunBatchCancelsWithCause checks RunBatch cancels outstanding work
// with the first error as the context cause.
func TestRunBatchCancelsWithCause(t *testing.T) {
	const workers, failAt = 4, 3
	// Several windows' worth, so a batch that stops within one
	// is told apart from one that drains.
	const total = 8 * windowPerWorker * workers
	st := MustStack("min", WithN(12), WithT(0))
	boom := errors.New("boom")
	exec := &failingExecutor{inner: engine.Sequential{}, failAt: failAt, err: boom}
	runner := NewRunner(st, WithExecutor(exec), WithParallelism(workers))

	_, err := runner.RunBatch(context.Background(), streamScenarios(12, 2, total))
	if !errors.Is(err, boom) {
		t.Fatalf("RunBatch error = %v, want the executor's error", err)
	}
	if got := exec.calls.Load(); got > total/2 {
		t.Errorf("executor ran %d of %d scenarios after an early failure: fail-slow", got, total)
	}
}

// brokenSource is an ErrorSource that fails mid-stream after yielding
// good scenarios — the shape of a shard reader whose pipe breaks.
type brokenSource struct {
	scenarios []Scenario
	breakAt   int
	next      int
	err       error
}

func (s *brokenSource) Next() (Scenario, bool) {
	if s.next >= s.breakAt {
		return Scenario{}, false
	}
	sc := s.scenarios[s.next]
	s.next++
	return sc, true
}

func (s *brokenSource) Count() (int64, bool) { return 0, false }

func (s *brokenSource) Err() error {
	if s.next >= s.breakAt {
		return s.err
	}
	return nil
}

// TestStreamFromOrderedSourceFailureCause: a source that fails
// mid-stream (a failed shard reader) must surface its error as the
// stream's cancellation cause — on the final outcome, Index -1 and no
// result, and on any outcome cancelled in flight — never as a bare
// context.Canceled, and RunSource — which rides the stream — returns the
// source's error rather than succeeding on the truncated prefix.
func TestStreamFromOrderedSourceFailureCause(t *testing.T) {
	const n = 4
	st := MustStack("min", WithN(n), WithT(1))
	readErr := errors.New("shard reader: record 4 carries ordinal 12 where the stripe needs 9")
	mk := func() *brokenSource {
		return &brokenSource{scenarios: streamScenarios(n, st.Horizon(), 16), breakAt: 5, err: readErr}
	}

	sawCause := false
	for oc := range NewRunner(st, WithParallelism(2)).StreamFrom(context.Background(), mk()) {
		if oc.Err == nil {
			continue
		}
		if !errors.Is(oc.Err, readErr) {
			t.Fatalf("outcome %d carries %v instead of the source's error", oc.Index, oc.Err)
		}
		sawCause = true
		if oc.Index == -1 && oc.Result != nil {
			t.Fatal("stream-failure outcome carries a result")
		}
	}
	if !sawCause {
		t.Fatal("ordered stream swallowed the failed source's error")
	}

	if _, err := NewRunner(st, WithParallelism(2)).RunSource(context.Background(), mk()); !errors.Is(err, readErr) {
		t.Fatalf("RunSource over a failing source = %v, want the source's error", err)
	}
}

// TestStreamFromExternalCancelNoSyntheticOutcome checks the new
// stream-failure outcome is reserved for source failures: externally
// cancelled streams end as before, with the caller's cause on ordinary
// outcomes only.
func TestStreamFromExternalCancelNoSyntheticOutcome(t *testing.T) {
	st := MustStack("min", WithN(4), WithT(1))
	cause := errors.New("operator preempted the sweep")
	ctx, cancel := context.WithCancelCause(context.Background())
	src := &countingSource{scenarios: streamScenarios(4, st.Horizon(), 64)}
	seen := 0
	for oc := range NewRunner(st, WithParallelism(2)).StreamFrom(ctx, src) {
		seen++
		if seen == 3 {
			cancel(cause)
		}
		if oc.Index == -1 {
			t.Fatal("external cancellation produced a synthetic stream-failure outcome")
		}
		if oc.Err != nil && !errors.Is(oc.Err, cause) {
			t.Fatalf("outcome %d error = %v, want the caller's cause", oc.Index, oc.Err)
		}
	}
	if seen >= 64 {
		t.Fatal("stream ran to completion despite cancellation")
	}
	cancel(nil)
}
