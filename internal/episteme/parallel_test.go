package episteme

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/action"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/model"
)

// runFingerprint renders everything observable about run r of sys: its
// pattern and traffic, its ledger read through the labelling, and every
// agent's local-state key at every time. Two runs with equal fingerprints
// are interchangeable for every checker.
func runFingerprint(sys *System, r int) string {
	var b strings.Builder
	b.WriteString(runLedger(sys, r))
	for m := 0; m <= sys.Horizon; m++ {
		for i := range model.AgentID(sys.N) {
			fmt.Fprintf(&b, "s[%d][%d]=%s\n", m, i, sys.Key(i, Point{Run: r, Time: m}))
		}
	}
	return b.String()
}

// runLedger is ledgerFingerprint of run r of sys, read through its
// labelling.
func runLedger(sys *System, r int) string {
	var res engine.Result
	sys.Ledger(r, &res)
	return ledgerFingerprint(&res)
}

// resultFingerprint is runFingerprint of an executed run, its keys read
// off its state trace.
func resultFingerprint(res *engine.Result) string {
	var b strings.Builder
	b.WriteString(ledgerFingerprint(res))
	for m := range res.States {
		for i := range res.States[m] {
			fmt.Fprintf(&b, "s[%d][%d]=%s\n", m, i, string(res.States[m][i].AppendKey(nil)))
		}
	}
	return b.String()
}

// ledgerFingerprint is resultFingerprint without the state trace: the
// pattern, the traffic and the ledger's content.
func ledgerFingerprint(res *engine.Result) string {
	return fmt.Sprintf("pat=%s stats=%+v %s", res.Pattern.Key(), res.Stats, ledgerContent(res))
}

// ledgerContent renders what a ledger records whoever holds it: inits,
// decisions, decision rounds and actions.
func ledgerContent(res *engine.Result) string {
	return fmt.Sprintf("inits=%v dec=%v rounds=%v acts=%v\n", res.Inits, res.Decision, res.DecisionRound, res.Actions)
}

func fipContext31() Context {
	return Context{Exchange: exchange.NewFIP(3), T: 1}
}

// TestBuildSystemMatchesPlainEngine pins the per-run build against the
// plain engine: every run of the system — its ledger read through the
// labelling, its keys through the index — must be bit-identical to
// executing its scenario through engine.Run.
func TestBuildSystemMatchesPlainEngine(t *testing.T) {
	sys, err := BuildSystem(context.Background(), perRunContext(fipContext31()), action.NewOpt(1))
	if err != nil {
		t.Fatal(err)
	}
	var res engine.Result
	for ri := range sys.Runs {
		sys.Ledger(ri, &res)
		plain, err := engine.Run(engine.Config{
			Exchange: exchange.NewFIP(3),
			Action:   action.NewOpt(1),
			Pattern:  res.Pattern,
			Inits:    res.Inits,
			Horizon:  sys.Horizon,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := runFingerprint(sys, ri), resultFingerprint(plain); got != want {
			t.Fatalf("run %d differs from the plain engine:\nmemo:\n%s\nplain:\n%s", ri, got, want)
		}
	}
}

// TestBuildSystemParallelismDeterminism checks BuildSystem is bit-identical
// at parallelism 1 and GOMAXPROCS, run for run.
func TestBuildSystemParallelismDeterminism(t *testing.T) {
	ctxs := map[string]struct {
		c   Context
		act model.ActionProtocol
	}{
		"fip":   {fipContext31(), action.NewOpt(1)},
		"min":   {Context{Exchange: exchange.NewMin(3), T: 1}, action.NewMin(1)},
		"crash": {Context{Exchange: exchange.NewBasic(3), T: 1, Crash: true}, action.NewBasic(3)},
	}
	for name, tc := range ctxs {
		seq, err := BuildSystem(context.Background(), tc.c, tc.act, WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		par, err := BuildSystem(context.Background(), tc.c, tc.act, WithParallelism(goruntime.GOMAXPROCS(0)))
		if err != nil {
			t.Fatal(err)
		}
		if len(seq.Runs) != len(par.Runs) {
			t.Fatalf("%s: %d vs %d runs", name, len(seq.Runs), len(par.Runs))
		}
		for r := range seq.Runs {
			if runFingerprint(seq, r) != runFingerprint(par, r) {
				t.Fatalf("%s: run %d differs between parallelism levels", name, r)
			}
		}
	}
}

// TestCheckersParallelismDeterminism checks all three checkers return
// identical reports at parallelism 1 and GOMAXPROCS — including on a
// system with real violations (Pmin over Efip).
func TestCheckersParallelismDeterminism(t *testing.T) {
	var baselineMs, baselineVs, baselineOs string
	for _, par := range []int{1, goruntime.GOMAXPROCS(0), 7} {
		opts := []Option{WithParallelism(par)}
		sys, err := BuildSystem(context.Background(), fipContext31(), action.NewMin(1), opts...)
		if err != nil {
			t.Fatal(err)
		}
		ms := checkImplements(t, sys, P1, 0)
		vs := checkSafety(t, sys, 0)
		os := checkOptimality(t, sys, -1, 0)
		if par == 1 {
			baselineMs, baselineVs, baselineOs = fmt.Sprint(ms), fmt.Sprint(vs), fmt.Sprint(os)
			if len(ms) == 0 || len(os) == 0 {
				t.Fatal("expected real violations from Pmin over Efip; the determinism test is vacuous")
			}
			continue
		}
		if fmt.Sprint(ms) != baselineMs {
			t.Errorf("par=%d: CheckImplements differs from sequential", par)
		}
		if fmt.Sprint(vs) != baselineVs {
			t.Errorf("par=%d: CheckSafety differs from sequential", par)
		}
		if fmt.Sprint(os) != baselineOs {
			t.Errorf("par=%d: CheckOptimalityFIP differs from sequential", par)
		}
	}
}

// TestSynthesizeParallelismDeterminism checks synthesis is bit-identical
// at parallelism 1 and GOMAXPROCS, for P0 over Emin and P1 over Efip.
func TestSynthesizeParallelismDeterminism(t *testing.T) {
	for _, tc := range []struct {
		c    Context
		prog Program
	}{
		{Context{Exchange: exchange.NewMin(3), T: 1}, P0},
		{fipContext31(), P1},
	} {
		seqSynth, err := Synthesize(context.Background(), tc.c, tc.prog, WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		parSynth, err := Synthesize(context.Background(), tc.c, tc.prog, WithParallelism(goruntime.GOMAXPROCS(0)))
		if err != nil {
			t.Fatal(err)
		}
		seqSys, parSys := build(t, tc.c, seqSynth), build(t, tc.c, parSynth)
		name := tc.c.Exchange.Name()
		if seqSynth.Size() != parSynth.Size() {
			t.Fatalf("%s: table sizes differ: %d vs %d", name, seqSynth.Size(), parSynth.Size())
		}
		for k, a := range seqSynth.table {
			if parSynth.table[k] != a {
				t.Fatalf("%s: table entry %q differs: %v vs %v", name, k, a, parSynth.table[k])
			}
		}
		for r := range seqSys.Runs {
			if runFingerprint(seqSys, r) != runFingerprint(parSys, r) {
				t.Fatalf("%s: synthesized run %d differs between parallelism levels", name, r)
			}
		}
	}
}

// TestCNReachableMatchesNaiveBFS is the differential test for the
// interned condensation: on the fip n=3,t=1 system, CNReachable must
// agree with a naive O(runs²) BFS over the definitional accessibility
// relation (q → q' iff some agent j nonfaulty at q has the same local
// state at both points).
func TestCNReachableMatchesNaiveBFS(t *testing.T) {
	sys, err := BuildSystem(context.Background(), fipContext31(), action.NewOpt(1))
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m <= sys.Horizon; m++ {
		// Precompute keys and nonfaulty sets for the slice.
		keys := make([][]string, len(sys.Runs))
		for r := range sys.Runs {
			keys[r] = make([]string, sys.N)
			for i := 0; i < sys.N; i++ {
				keys[r][i] = sys.Key(model.AgentID(i), Point{Run: r, Time: m})
			}
		}
		edge := func(q, qp int) bool {
			for j := 0; j < sys.N; j++ {
				if sys.Runs[q].Pattern.Nonfaulty(model.AgentID(j)) && keys[q][j] == keys[qp][j] {
					return true
				}
			}
			return false
		}
		// BFS from a deterministic sample of sources (the relation is the
		// same for every source in a class, so a spread sample suffices).
		for src := 0; src < len(sys.Runs); src += 97 {
			reach := make([]bool, len(sys.Runs))
			var queue []int
			for qp := 0; qp < len(sys.Runs); qp++ {
				if edge(src, qp) && !reach[qp] {
					reach[qp] = true
					queue = append(queue, qp)
				}
			}
			for len(queue) > 0 {
				q := queue[0]
				queue = queue[1:]
				for qp := 0; qp < len(sys.Runs); qp++ {
					if !reach[qp] && edge(q, qp) {
						reach[qp] = true
						queue = append(queue, qp)
					}
				}
			}
			var want []int
			for qp, ok := range reach {
				if ok {
					want = append(want, qp)
				}
			}
			got := append([]int(nil), sys.CNReachable(Point{Run: src, Time: m})...)
			sort.Ints(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("time %d source %d: CNReachable %v, naive BFS %v", m, src, got, want)
			}
		}
	}
}

// TestBuildSystemCancellation checks ctx cancellation aborts the build
// with the cancellation cause.
func TestBuildSystemCancellation(t *testing.T) {
	cause := errors.New("operator gave up")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := BuildSystem(ctx, fipContext31(), action.NewOpt(1)); !errors.Is(err, cause) {
		t.Fatalf("BuildSystem error = %v, want the cancellation cause", err)
	}
	if _, err := Synthesize(ctx, Context{Exchange: exchange.NewMin(3), T: 1}, P0); !errors.Is(err, cause) {
		t.Fatalf("Synthesize error = %v, want the cancellation cause", err)
	}
}

// TestCheckerCancellation checks the checkers abort with the cancellation
// cause.
func TestCheckerCancellation(t *testing.T) {
	sys, err := BuildSystem(context.Background(), fipContext31(), action.NewOpt(1))
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("deadline")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := sys.CheckImplements(ctx, P1, 0); !errors.Is(err, cause) {
		t.Errorf("CheckImplements error = %v, want the cancellation cause", err)
	}
	if _, err := sys.CheckSafety(ctx, 0); !errors.Is(err, cause) {
		t.Errorf("CheckSafety error = %v, want the cancellation cause", err)
	}
	if _, err := sys.CheckOptimalityFIP(ctx, -1, 0); !errors.Is(err, cause) {
		t.Errorf("CheckOptimalityFIP error = %v, want the cancellation cause", err)
	}
}

// TestTruncationNotices checks every checker reports the size of a
// truncated tail instead of silently dropping it.
func TestTruncationNotices(t *testing.T) {
	// Pmin over Efip violates both the P1 implementation and the
	// optimality characterization; P0 over Efip violates safety.
	sys, err := BuildSystem(context.Background(), fipContext31(), action.NewMin(1))
	if err != nil {
		t.Fatal(err)
	}

	all := checkImplements(t, sys, P1, 0)
	capped := checkImplements(t, sys, P1, 1)
	if len(all) < 2 {
		t.Fatalf("expected ≥2 mismatches from Pmin/P1, got %d; truncation test is vacuous", len(all))
	}
	if len(capped) != 2 {
		t.Fatalf("CheckImplements(max=1) returned %d entries, want 1 + notice", len(capped))
	}
	notice := capped[1]
	if notice.More != len(all)-1 {
		t.Errorf("notice.More = %d, want %d", notice.More, len(all)-1)
	}
	if !strings.Contains(notice.String(), "truncated") {
		t.Errorf("notice renders as %q, want a truncation notice", notice.String())
	}
	if capped[0] != all[0] {
		t.Error("capped prefix differs from the uncapped report")
	}

	allOpt := checkOptimality(t, sys, -1, 0)
	cappedOpt := checkOptimality(t, sys, -1, 1)
	if len(allOpt) <= 2 {
		t.Fatalf("expected >2 optimality violations, got %d", len(allOpt))
	}
	if len(cappedOpt) != 2 || !strings.Contains(cappedOpt[1], "truncated") ||
		!strings.Contains(cappedOpt[1], fmt.Sprint(len(allOpt)-1)) {
		t.Errorf("CheckOptimalityFIP(max=1) = %v, want first violation + notice of %d more", cappedOpt, len(allOpt)-1)
	}

	fipP0, err := BuildSystem(context.Background(), fipContext31(), action.NewOptNoCK(1))
	if err != nil {
		t.Fatal(err)
	}
	allSafety := checkSafety(t, fipP0, 0)
	cappedSafety := checkSafety(t, fipP0, 1)
	if len(allSafety) <= 2 {
		t.Fatalf("expected >2 safety violations in γ_fip, got %d", len(allSafety))
	}
	if len(cappedSafety) != 2 || !strings.Contains(cappedSafety[1], "truncated") {
		t.Errorf("CheckSafety(max=1) = %v, want first violation + notice", cappedSafety)
	}

	// The cap landing inside each block of a report: after a clause (1)
	// and after a clause (2) entry of one run, and inside the v=0 and the
	// v=1 half of the optimality report.
	late, err := BuildSystem(context.Background(), Context{Exchange: exchange.NewMin(3), T: 1}, lateZeroAction{})
	if err != nil {
		t.Fatal(err)
	}
	allSafety = checkSafety(t, late, 0)
	for _, tc := range []struct {
		max    int
		clause string
	}{{2, "clause 1"}, {4, "clause 2"}} {
		if !strings.HasPrefix(allSafety[tc.max-1], tc.clause) || !strings.HasPrefix(allSafety[tc.max], "clause") {
			t.Fatalf("safety entries %d, %d = %q, %q; want the cap to land after a %s entry",
				tc.max-1, tc.max, allSafety[tc.max-1], allSafety[tc.max], tc.clause)
		}
		assertCapped(t, "CheckSafety", allSafety, checkSafety(t, late, tc.max), tc.max)
	}
	slow, err := BuildSystem(context.Background(), fipContext31(), slowFIPAction{})
	if err != nil {
		t.Fatal(err)
	}
	allOpt = checkOptimality(t, slow, -1, 0)
	firstOne := slices.IndexFunc(allOpt, func(v string) bool { return strings.HasPrefix(v, "v=1") })
	if firstOne < 2 || firstOne+2 >= len(allOpt) {
		t.Fatalf("first v=1 violation at %d of %d; want violations of both values", firstOne, len(allOpt))
	}
	for _, max := range []int{2, firstOne + 2} {
		assertCapped(t, "CheckOptimalityFIP", allOpt, checkOptimality(t, slow, -1, max), max)
	}
}

// assertCapped checks a capped report is the first max entries of the
// full one plus a notice counting the rest.
func assertCapped(t *testing.T, name string, all, capped []string, max int) {
	t.Helper()
	want := append(slices.Clone(all[:max]), truncated(len(all)-max, "violations"))
	if !slices.Equal(capped, want) {
		t.Errorf("%s(max=%d) returned %d entries ending %q; want the first %d violations and %q",
			name, max, len(capped), capped[len(capped)-1], max, want[max])
	}
}

// lateZeroAction is P_min with the decision on an initial 0 put off to
// round 2. Nobody decides 0 in round 1, so the round-2 deciders extend no
// 0-chain: a protocol that violates clause (2) of Definition 6.2 as well
// as clause (1).
type lateZeroAction struct{}

func (lateZeroAction) Name() string { return "Plate0" }
func (lateZeroAction) Act(_ model.AgentID, s model.State) model.Action {
	switch {
	case s.Decided().IsSet() || s.Time() == 0:
		return model.Noop
	case s.Init() == model.Zero || s.JustDecided() == model.Zero:
		return model.Decide0
	case s.Time() == 2:
		return model.Decide1
	default:
		return model.Noop
	}
}

// TestMemoExecFallback checks the n > 8 fallback to the plain engine:
// the memo's packed keys cover at most 8 agents, so a 9-agent context
// must still build (and still implement P0).
func TestMemoExecFallback(t *testing.T) {
	c := Context{Exchange: exchange.NewMin(9), T: 0, Horizon: 1}
	sys, err := BuildSystem(context.Background(), c, action.NewMin(0))
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 << 9; len(sys.Runs) != want {
		t.Fatalf("got %d runs, want %d (one pattern × 2⁹ inits)", len(sys.Runs), want)
	}
}
