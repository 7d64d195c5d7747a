package eba_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	eba "repro"
)

// mustStack builds a registered stack through the public constructor.
func mustStack(t *testing.T, name string, n, tf int) eba.Stack {
	t.Helper()
	st, err := eba.NewStack(name, eba.WithN(n), eba.WithT(tf))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPublicQuickstart(t *testing.T) {
	stack := mustStack(t, "basic", 5, 2)
	pattern := eba.Silent(5, stack.Horizon(), 0)
	inits := []eba.Value{eba.One, eba.One, eba.Zero, eba.One, eba.One}
	res, err := stack.Run(pattern, inits)
	if err != nil {
		t.Fatal(err)
	}
	if vs := eba.CheckRun(res, eba.SpecOptions{RoundBound: stack.Horizon()}); len(vs) != 0 {
		t.Fatalf("spec violations: %v", vs)
	}
	for i := 1; i < 5; i++ {
		if res.Decided(eba.AgentID(i)) != eba.Zero {
			t.Errorf("agent %d decided %v, want 0", i, res.Decided(eba.AgentID(i)))
		}
	}
}

func TestPublicPatternsAndModels(t *testing.T) {
	if eba.SO(2).String() != "SO(2)" || eba.Crash(1).String() != "crash(1)" {
		t.Error("model re-exports broken")
	}
	p := eba.Example71(6, 3, 5)
	if err := eba.SO(3).Admits(p); err != nil {
		t.Errorf("Example71 pattern rejected: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	if err := eba.SO(2).Admits(eba.RandomSO(rng, 5, 2, 4, 0.5)); err != nil {
		t.Error(err)
	}
	if err := eba.Crash(2).Admits(eba.RandomCrash(rng, 5, 2, 4)); err != nil {
		t.Error(err)
	}
	fresh := eba.NewPattern(3, 2)
	if fresh.NumFaulty() != 0 {
		t.Error("NewPattern should be failure-free")
	}
}

func TestPublicDominance(t *testing.T) {
	n, tf := 4, 1
	basic, min := mustStack(t, "basic", n, tf), mustStack(t, "min", n, tf)
	scenarios := []eba.Scenario{
		{Pattern: eba.FailureFree(n, tf+2), Inits: eba.UniformInits(n, eba.One)},
		{Pattern: eba.FailureFree(n, tf+2), Inits: []eba.Value{eba.Zero, eba.One, eba.One, eba.One}},
	}
	runsB, err := eba.NewRunner(basic).RunBatch(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	runsM, err := eba.NewRunner(min).RunBatch(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := eba.CompareRuns(runsB, runsM)
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Strictly() {
		t.Errorf("Basic should strictly dominate Min on these scenarios: %+v", dom)
	}
}

func TestPublicFIPStack(t *testing.T) {
	stack := mustStack(t, "fip", 6, 3)
	res, err := stack.Run(eba.Example71(6, 3, stack.Horizon()), eba.UniformInits(6, eba.One))
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 6; i++ {
		if res.Round(eba.AgentID(i)) != 3 {
			t.Errorf("agent %d decided in round %d, want 3 (Example 7.1)", i, res.Round(eba.AgentID(i)))
		}
	}
}

func TestPublicVerifyImplementation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bad, err := eba.VerifyImplementation(context.Background(), mustStack(t, "min", 3, 1), eba.ProgramP0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Errorf("Pmin should implement P0: %v", bad)
	}
	// The minimal protocol run over the FIP exchange is NOT an
	// implementation of P1 (it ignores what full information offers).
	mixed := mustStack(t, "fip", 3, 1)
	mixed.Action = mustStack(t, "min", 3, 1).Action
	bad, err = eba.VerifyImplementation(context.Background(), mixed, eba.ProgramP1)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) == 0 {
		t.Error("Pmin over Efip should not implement P1")
	}
}

func TestPublicVerifyOptimality(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bad, err := eba.VerifyOptimality(context.Background(), mustStack(t, "fip", 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Errorf("Popt should be optimal: %v", bad)
	}
	bad, err = eba.VerifyOptimality(context.Background(), mustStack(t, "fip-nock", 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	// At t=1 the ablation coincides with P_opt (see episteme tests), so
	// it passes here too; the check exercises the public path either way.
	_ = bad
}

func TestPublicRegistryConstruction(t *testing.T) {
	// Every registered pairing — including the pairings the old fixed
	// constructors could not reach — is constructible by name and runs.
	names := eba.StackNames()
	if len(names) != 6 {
		t.Fatalf("StackNames() = %v, want 6 names", names)
	}
	pat := eba.Silent(4, 3, 0)
	inits := eba.UniformInits(4, eba.One)
	for _, name := range names {
		stack, err := eba.NewStack(name, eba.WithN(4), eba.WithT(1))
		if err != nil {
			t.Fatalf("NewStack(%q): %v", name, err)
		}
		if stack.Name != name {
			t.Errorf("NewStack(%q).Name = %q", name, stack.Name)
		}
		res, err := eba.NewRunner(stack).Run(context.Background(),
			eba.Scenario{Pattern: pat, Inits: inits})
		if err != nil {
			t.Fatalf("run %q: %v", name, err)
		}
		if res.N != 4 {
			t.Errorf("%q ran %d agents, want 4", name, res.N)
		}
	}
	if len(eba.ExchangeNames()) != 3 || len(eba.ActionNames()) != 5 {
		t.Errorf("component listings: %v / %v", eba.ExchangeNames(), eba.ActionNames())
	}
	for _, info := range eba.Stacks() {
		if info.Description == "" {
			t.Errorf("stack %q has no description", info.Name)
		}
	}
}

func TestPublicComposeReachesEveryPairing(t *testing.T) {
	// The acceptance criterion: fip+pmin, previously unreachable from the
	// facade, composes and is dominated by fip on Example 7.1.
	n, tf := 6, 3
	pat := eba.Example71(n, tf, tf+2)
	inits := eba.UniformInits(n, eba.One)
	sc := eba.Scenario{Pattern: pat, Inits: inits}
	ctx := context.Background()

	fipmin, err := eba.Compose("fip", "pmin", eba.WithN(n), eba.WithT(tf))
	if err != nil {
		t.Fatal(err)
	}
	if fipmin.Name != "fip+pmin" {
		t.Errorf("composed name = %q, want fip+pmin", fipmin.Name)
	}
	rMin, err := eba.NewRunner(fipmin).Run(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	fip, err := eba.NewStack("fip", eba.WithN(n), eba.WithT(tf))
	if err != nil {
		t.Fatal(err)
	}
	rOpt, err := eba.NewRunner(fip).Run(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	// Same exchange, different action protocol: Popt exploits common
	// knowledge and decides in round 3, Pmin waits out t+2.
	if rOpt.MaxDecisionRound(true) != 3 || rMin.MaxDecisionRound(true) != tf+2 {
		t.Errorf("fip decided round %d (want 3), fip+pmin round %d (want %d)",
			rOpt.MaxDecisionRound(true), rMin.MaxDecisionRound(true), tf+2)
	}
	if _, err := eba.Compose("min", "popt"); err == nil {
		t.Error("incompatible pairing accepted")
	}
}

func TestPublicRunnerBatchAndStream(t *testing.T) {
	n, tf := 5, 2
	stack, err := eba.NewStack("basic", eba.WithN(n), eba.WithT(tf))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	scenarios := make([]eba.Scenario, 12)
	for k := range scenarios {
		inits := make([]eba.Value, n)
		for i := range inits {
			inits[i] = eba.Value(rng.Intn(2))
		}
		scenarios[k] = eba.Scenario{
			Pattern: eba.RandomSO(rng, n, tf, tf+2, 0.4),
			Inits:   inits,
		}
	}
	ctx := context.Background()
	runner := eba.NewRunner(stack,
		eba.WithExecutor(eba.Sequential),
		eba.WithParallelism(4),
		eba.WithSpecCheck(eba.SpecOptions{RoundBound: stack.Horizon()}))
	batch, err := runner.RunBatch(ctx, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	for k, sc := range scenarios {
		want, err := stack.Run(sc.Pattern, sc.Inits)
		if err != nil {
			t.Fatal(err)
		}
		if batch[k].Stats != want.Stats {
			t.Fatalf("batch result %d diverges from the sequential path", k)
		}
	}
	next := 0
	for oc := range runner.Stream(ctx, scenarios) {
		if oc.Err != nil {
			t.Fatal(oc.Err)
		}
		if oc.Index != next {
			t.Fatalf("stream emitted %d, want %d", oc.Index, next)
		}
		next++
	}
	if next != len(scenarios) {
		t.Fatalf("stream emitted %d outcomes, want %d", next, len(scenarios))
	}
}

func TestPublicNaiveIsBroken(t *testing.T) {
	// The exported counterexample stack must still violate agreement under
	// the introduction's adversary (run r′; E6's naive rows in full).
	stack := mustStack(t, "naive", 3, 1)
	pat := eba.NewPattern(3, stack.Horizon())
	pat.Silence(0, 0, stack.Horizon())
	// Rebuild with the single late delivery, as in the intro's run r′.
	pat2 := eba.NewPattern(3, stack.Horizon())
	for m := 0; m < stack.Horizon(); m++ {
		for j := 1; j < 3; j++ {
			if m == 1 && j == 2 {
				continue
			}
			pat2.Drop(m, 0, eba.AgentID(j))
		}
	}
	res, err := stack.Run(pat2, []eba.Value{eba.Zero, eba.One, eba.One})
	if err != nil {
		t.Fatal(err)
	}
	vs := eba.CheckRun(res, eba.SpecOptions{})
	found := false
	for _, v := range vs {
		if v.Property == "Agreement" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an Agreement violation, got %v", vs)
	}
}

func TestPublicBuildSystemParallelism(t *testing.T) {
	// The public checker options: explicit parallelism never changes the
	// verdicts, and the built system serves all three checkers.
	ctx := context.Background()
	stack := eba.MustStack("fip", eba.WithN(3), eba.WithT(1))
	seq, err := eba.BuildSystem(ctx, stack, eba.WithCheckParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := eba.BuildSystem(ctx, stack, eba.WithCheckParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Runs) != len(par.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(seq.Runs), len(par.Runs))
	}
	msSeq, err := seq.CheckImplements(ctx, eba.ProgramP1, 0)
	if err != nil {
		t.Fatal(err)
	}
	msPar, err := par.CheckImplements(ctx, eba.ProgramP1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msSeq) != 0 || len(msPar) != 0 {
		t.Errorf("Popt/P1 mismatches: seq=%d par=%d, want 0", len(msSeq), len(msPar))
	}
}

func TestPublicCheckCancellation(t *testing.T) {
	cause := errors.New("cancelled by test")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := eba.BuildSystem(ctx, eba.MustStack("min", eba.WithN(3), eba.WithT(1))); !errors.Is(err, cause) {
		t.Fatalf("BuildSystem error = %v, want the cancellation cause", err)
	}
}
