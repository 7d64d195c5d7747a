package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/adversary"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/spec"
)

// randomScenarios builds a deterministic list of random SO(t) scenarios.
func randomScenarios(seed int64, n, tf, count int) []Scenario {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Scenario, count)
	for k := range out {
		pat := adversary.RandomSO(rng, n, tf, tf+2, 0.4)
		inits := make([]model.Value, n)
		for i := range inits {
			inits[i] = model.Value(rng.Intn(2))
		}
		out[k] = Scenario{Pattern: pat, Inits: inits}
	}
	return out
}

// assertSameRun compares two results field by field (states via their
// canonical keys, i.e. byte-identical traces).
func assertSameRun(t *testing.T, label string, want, got *engine.Result) {
	t.Helper()
	if want.Stats != got.Stats {
		t.Fatalf("%s: stats differ: %+v vs %+v", label, want.Stats, got.Stats)
	}
	for m := range want.States {
		for i := range want.States[m] {
			if string(want.States[m][i].AppendKey(nil)) != string(got.States[m][i].AppendKey(nil)) {
				t.Fatalf("%s: state differs at time %d agent %d", label, m, i)
			}
		}
	}
	for m := range want.Actions {
		for i := range want.Actions[m] {
			if want.Actions[m][i] != got.Actions[m][i] {
				t.Fatalf("%s: action differs at time %d agent %d", label, m, i)
			}
		}
	}
	for i := range want.Decision {
		if want.Decision[i] != got.Decision[i] || want.DecisionRound[i] != got.DecisionRound[i] {
			t.Fatalf("%s: decision ledger differs for agent %d", label, i)
		}
	}
}

// TestRunBatchMatchesSequential is the acceptance check of the API
// redesign: a parallel batch with buffer reuse produces results identical
// to the plain sequential path, scenario by scenario, for every
// registered stack.
func TestRunBatchMatchesSequential(t *testing.T) {
	n, tf := 5, 2
	scenarios := randomScenarios(11, n, tf, 20)
	for _, name := range registry.StackNames() {
		st := MustStack(name, WithN(n), WithT(tf))
		parallel, err := NewRunner(st, WithParallelism(4)).
			RunBatch(context.Background(), scenarios)
		if err != nil {
			t.Fatalf("%s: RunBatch: %v", name, err)
		}
		if len(parallel) != len(scenarios) {
			t.Fatalf("%s: RunBatch returned %d results for %d scenarios", name, len(parallel), len(scenarios))
		}
		for k, sc := range scenarios {
			want, err := st.Run(sc.Pattern, sc.Inits)
			if err != nil {
				t.Fatalf("%s: scenario %d: %v", name, k, err)
			}
			assertSameRun(t, name, want, parallel[k])
		}
	}
}

// TestRunBatchOrderPreservation gives every scenario a distinguishable
// initial vector and checks result k corresponds to scenario k even with
// more workers than scenarios finish in order.
func TestRunBatchOrderPreservation(t *testing.T) {
	n, tf := 5, 1
	scenarios := make([]Scenario, 32)
	for k := range scenarios {
		inits := make([]model.Value, n)
		for i := range inits {
			inits[i] = model.Value((k >> i) & 1)
		}
		scenarios[k] = Scenario{Pattern: adversary.FailureFree(n, tf+2), Inits: inits}
	}
	st := MustStack("min", WithN(n), WithT(tf))
	results, err := NewRunner(st, WithParallelism(8)).RunBatch(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	for k, res := range results {
		for i := range res.Inits {
			if res.Inits[i] != scenarios[k].Inits[i] {
				t.Fatalf("result %d carries inits of a different scenario", k)
			}
		}
	}
}

// TestStreamEmitsInOrder checks the streaming path re-sequences
// out-of-order worker completions.
func TestStreamEmitsInOrder(t *testing.T) {
	n, tf := 4, 1
	scenarios := randomScenarios(3, n, tf, 16)
	st := MustStack("basic", WithN(n), WithT(tf))
	next := 0
	for oc := range NewRunner(st, WithParallelism(4)).Stream(context.Background(), scenarios) {
		if oc.Err != nil {
			t.Fatalf("outcome %d: %v", oc.Index, oc.Err)
		}
		if oc.Index != next {
			t.Fatalf("stream emitted index %d, want %d", oc.Index, next)
		}
		next++
	}
	if next != len(scenarios) {
		t.Fatalf("stream emitted %d outcomes, want %d", next, len(scenarios))
	}
}

// TestRunBatchCancellation cancels mid-batch and checks the batch aborts
// with the context's error and the stream closes promptly.
func TestRunBatchCancellation(t *testing.T) {
	n, tf := 5, 2
	scenarios := randomScenarios(5, n, tf, 200)
	st := MustStack("fip", WithN(n), WithT(tf))

	// Pre-cancelled context: nothing runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewRunner(st, WithParallelism(2)).RunBatch(ctx, scenarios); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBatch on cancelled context = %v, want context.Canceled", err)
	}

	// Cancellation mid-stream: the channel closes without emitting all
	// outcomes, and pending workers are released (the test would hang
	// otherwise).
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	for oc := range NewRunner(st, WithParallelism(2)).Stream(ctx, scenarios) {
		if oc.Err != nil {
			break
		}
		seen++
		if seen == 3 {
			cancel()
		}
	}
	if seen >= len(scenarios) {
		t.Fatalf("stream ran to completion (%d outcomes) despite cancellation", seen)
	}
}

// TestExecutorTraceEquivalence runs every registered stack through the
// Runner on both executors and requires byte-identical traces — the
// executor-level extension of internal/runtime's determinism test.
func TestExecutorTraceEquivalence(t *testing.T) {
	n, tf := 5, 2
	scenarios := randomScenarios(23, n, tf, 10)
	for _, name := range registry.StackNames() {
		st := MustStack(name, WithN(n), WithT(tf))
		seq, err := NewRunner(st, WithExecutor(engine.Sequential{}), WithParallelism(2)).
			RunBatch(context.Background(), scenarios)
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		conc, err := NewRunner(st, WithExecutor(runtime.Concurrent{}), WithParallelism(2)).
			RunBatch(context.Background(), scenarios)
		if err != nil {
			t.Fatalf("%s concurrent: %v", name, err)
		}
		for k := range scenarios {
			assertSameRun(t, name, seq[k], conc[k])
		}
	}
}

// TestSpecCheckFlagsNaive checks WithSpecCheck turns the introduction's
// counterexample run into a *SpecError carrying the violations.
func TestSpecCheckFlagsNaive(t *testing.T) {
	n, tf := 3, 1
	st := MustStack("naive", WithN(n), WithT(tf))
	// The introduction's run r′: agent 0 silent except one late message
	// to agent 2 in round 2.
	pat := model.NewPattern(n, st.Horizon())
	for m := 0; m < st.Horizon(); m++ {
		for j := 1; j < n; j++ {
			if m == 1 && j == 2 {
				continue
			}
			pat.Drop(m, 0, model.AgentID(j))
		}
	}
	sc := Scenario{Pattern: pat, Inits: []model.Value{model.Zero, model.One, model.One}}
	runner := NewRunner(st, WithSpecCheck(spec.Options{}))
	_, err := runner.Run(context.Background(), sc)
	var specErr *SpecError
	if !errors.As(err, &specErr) {
		t.Fatalf("Run = %v, want *SpecError", err)
	}
	if len(specErr.Violations) == 0 {
		t.Fatal("SpecError carries no violations")
	}
	// The min stack on the same adversary satisfies the spec.
	good := MustStack("min", WithN(n), WithT(tf))
	if _, err := NewRunner(good, WithSpecCheck(spec.Options{})).Run(context.Background(), sc); err != nil {
		t.Fatalf("min stack flagged: %v", err)
	}
}

// TestStackOptions covers defaults, WithHorizon, and validation.
func TestStackOptions(t *testing.T) {
	st, err := NewStack("basic")
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 5 || st.T != 2 || st.Horizon() != 4 {
		t.Errorf("defaults: n=%d t=%d horizon=%d, want 5/2/4", st.N, st.T, st.Horizon())
	}
	st, err = NewStack("min", WithN(4), WithT(1), WithHorizon(7))
	if err != nil {
		t.Fatal(err)
	}
	if st.Horizon() != 7 {
		t.Errorf("WithHorizon(7) ignored: horizon=%d", st.Horizon())
	}
	res, err := st.Run(adversary.FailureFree(4, 7), adversary.UniformInits(4, model.One))
	if err != nil {
		t.Fatal(err)
	}
	if res.Horizon != 7 {
		t.Errorf("run executed %d rounds, want 7", res.Horizon)
	}
	for _, bad := range [][]Option{
		{WithN(0)},
		{WithN(-3)},
		{WithT(-1)},
		{WithHorizon(-2)},
		{WithN(3), WithT(3)}, // t ≥ n: no agent guaranteed nonfaulty
		{WithN(2)},           // against the default t=2
	} {
		if _, err := NewStack("min", bad...); err == nil {
			t.Errorf("NewStack with %d bad option(s) accepted", len(bad))
		}
	}
	if _, err := NewStack("bogus"); err == nil {
		t.Error("unknown stack name accepted")
	}
	if _, err := Compose("min", "popt"); err == nil {
		t.Error("incompatible composition accepted")
	}
}

// TestBareRunnerBatchAllocCeiling pins what a Runner built with no
// options allocates per batch at what the buffer-reusing Runner did while
// reuse was still an option (3,059 on this workload; the option-less one
// took 7,966): every worker owns a Buffers now, so there is no cheaper
// Runner to ask for. Allocation counts are deterministic at parallelism 1.
func TestBareRunnerBatchAllocCeiling(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumentation allocates on its own")
			}
		}
	}
	runner := NewRunner(MustStack("basic", WithN(8), WithT(2)))
	scenarios := randomScenarios(5, 8, 2, 64)
	got := testing.AllocsPerRun(20, func() {
		if _, err := runner.RunBatch(context.Background(), scenarios); err != nil {
			t.Fatal(err)
		}
	})
	if got > 3059 {
		t.Errorf("%.0f allocs per 64-scenario batch, ceiling 3059", got)
	}
}

// TestComposedStackNames checks canonical naming of compositions.
func TestComposedStackNames(t *testing.T) {
	st, err := Compose("fip", "pmin", WithN(4), WithT(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "fip+pmin" {
		t.Errorf("Compose(fip, pmin).Name = %q, want fip+pmin", st.Name)
	}
	st, err = Compose("basic", "pmin", WithN(4), WithT(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "basic+pmin" {
		t.Errorf("Compose(basic, pmin).Name = %q, want basic+pmin", st.Name)
	}
}

// TestRunnerErrorPropagation checks an execution error surfaces with the
// scenario index.
func TestRunnerErrorPropagation(t *testing.T) {
	st := MustStack("min", WithN(4), WithT(1))
	scenarios := []Scenario{
		{Pattern: adversary.FailureFree(4, 3), Inits: adversary.UniformInits(4, model.One)},
		{Pattern: adversary.FailureFree(4, 3), Inits: adversary.UniformInits(3, model.One)}, // wrong length
	}
	_, err := NewRunner(st, WithParallelism(2)).RunBatch(context.Background(), scenarios)
	if err == nil {
		t.Fatal("bad scenario accepted")
	}
}
