package episteme

import (
	"context"
	"fmt"
	"maps"
	"testing"

	"repro/internal/action"
	"repro/internal/adversary"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/model"
)

func TestBuildSystemShape(t *testing.T) {
	sys := buildMin(t, 3, 1)
	// 49 patterns (see adversary tests) × 8 initial vectors... with
	// horizon t+2 = 3: 1 + 3·2^(3·2) = 193 patterns, × 8 = 1544 runs.
	if len(sys.Runs) != 1544 {
		t.Fatalf("got %d runs, want 1544", len(sys.Runs))
	}
	if sys.Horizon != 3 || sys.N != 3 || sys.T != 1 {
		t.Fatalf("unexpected system dims: %+v", sys)
	}
}

func TestBuildSystemValidation(t *testing.T) {
	if _, err := BuildSystem(context.Background(), Context{}, nil); err == nil {
		t.Error("empty context accepted")
	}
}

func TestKnowledgeIsVeridical(t *testing.T) {
	// K_i φ ⇒ φ: sampled over points and a mix of formulas.
	sys := buildMin(t, 3, 1)
	phi := func(q Point) bool { return sys.Exists(model.Zero, q) }
	sys.Points(-1, func(p Point) {
		for i := 0; i < sys.N; i++ {
			if sys.Knows(model.AgentID(i), p, phi) && !phi(p) {
				t.Fatalf("K_%d(∃0) held at a ¬∃0 point %v", i, p)
			}
		}
	})
}

func TestKnowledgeIsIntrospective(t *testing.T) {
	// K_i φ is a function of i's local state: points in the same class
	// agree on it.
	sys := buildMin(t, 3, 1)
	phi := func(q Point) bool { return sys.NoDecidedN(model.Zero, q) }
	p := Point{Run: 17, Time: 2}
	for i := 0; i < sys.N; i++ {
		id := model.AgentID(i)
		v := sys.Knows(id, p, phi)
		for _, q := range sys.Class(id, p) {
			if sys.Knows(id, q, phi) != v {
				t.Fatalf("K_%d value differs within a ~_%d class", i, i)
			}
		}
	}
}

func TestCNImpliesEveryoneKnows(t *testing.T) {
	// C_N φ ⇒ K_j φ for every nonfaulty j (over reachable points, C_N's
	// fixpoint property), tested on the FIP system where C_N actually
	// becomes true.
	sys := buildFIP(t, 3, 1, 0)
	count := 0
	sys.Points(-1, func(p Point) {
		if p.Time == 0 {
			return
		}
		reach := sys.CNReachable(p)
		holds := len(reach) > 0
		for _, r := range reach {
			if !sys.Exists(model.One, Point{Run: r, Time: p.Time}) {
				holds = false
				break
			}
		}
		if !holds {
			return
		}
		count++
		phi := func(q Point) bool { return sys.Exists(model.One, q) }
		for j := 0; j < sys.N; j++ {
			id := model.AgentID(j)
			if sys.Nonfaulty(id, p) && !sys.Knows(id, p, phi) {
				t.Fatalf("C_N(∃1) at %v but K_%d(∃1) fails", p, j)
			}
		}
	})
	if count == 0 {
		t.Fatal("C_N(∃1) never held; test is vacuous")
	}
}

func TestDecidedValAndDeciding(t *testing.T) {
	// Wire-level sanity of the temporal props against a known run.
	n, tf := 3, 1
	res, err := engine.Run(engine.Config{
		Exchange: exchange.NewMin(n),
		Action:   action.NewMin(tf),
		Pattern:  adversary.FailureFree(n, tf+2),
		Inits:    []model.Value{model.Zero, model.One, model.One},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := fromResults(context.Background(), &System{N: n, T: tf, Horizon: tf + 2}, []*engine.Result{res})
	if err != nil {
		t.Fatal(err)
	}
	// Agent 0 decides 0 in round 1: deciding at time 0, decided from 1 on.
	if !sys.Deciding(0, model.Zero, Point{0, 0}) {
		t.Error("agent 0 should be deciding 0 at time 0")
	}
	if sys.DecidedVal(0, Point{0, 0}) != model.None {
		t.Error("agent 0 should be undecided at time 0")
	}
	if sys.DecidedVal(0, Point{0, 1}) != model.Zero {
		t.Error("agent 0 should have decided 0 at time 1")
	}
	if !sys.JustDecided(0, model.Zero, Point{0, 1}) {
		t.Error("agent 0 just decided 0 at time 1")
	}
	if sys.JustDecided(0, model.Zero, Point{0, 2}) {
		t.Error("jdecided must hold only in the deciding round")
	}
	// Agents 1, 2 hear the 0 and decide 0 in round 2.
	if !sys.Deciding(1, model.Zero, Point{0, 1}) {
		t.Error("agent 1 should be deciding 0 at time 1")
	}
	if sys.NoDecidedN(model.Zero, Point{0, 2}) {
		t.Error("no-decided_N(0) must fail once agents decided 0")
	}
}

func TestProposition64SafetyMin(t *testing.T) {
	// Proposition 6.4: P0 is safe with respect to γ_min (n=3, t=1; n−t≥2).
	sys := buildMin(t, 3, 1)
	if vs := checkSafety(t, sys, 3); len(vs) != 0 {
		t.Errorf("safety violations in γ_min: %v", vs)
	}
}

func TestProposition64SafetyBasic(t *testing.T) {
	// Proposition 6.4: P0 is safe with respect to γ_basic (n=3, t=1).
	sys := buildBasic(t, 3, 1)
	if vs := checkSafety(t, sys, 3); len(vs) != 0 {
		t.Errorf("safety violations in γ_basic: %v", vs)
	}
}

func TestSafetyFailsForFIP(t *testing.T) {
	// Section 6 remarks that P0 is NOT safe with respect to a
	// full-information context: an agent can learn about a 0 without
	// receiving a 0-chain, so clause (1) must fail somewhere.
	sys := buildFIP(t, 3, 1, 0)
	if vs := checkSafety(t, sys, 1); len(vs) == 0 {
		t.Error("expected a safety violation in the full-information context")
	}
}

func TestTheorem75OptimalityPopt(t *testing.T) {
	// Theorem 7.5 ⊕ Corollary 7.8: P_opt satisfies the optimality
	// characterization with respect to γ_fip (n=3, t=1). Checked at every
	// point the trace determines.
	sys := buildFIP(t, 3, 1, 0)
	if vs := checkOptimality(t, sys, -1, 5); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("optimality violation: %s", v)
		}
	}
}

func TestPminIsNotOptimalInFIPContext(t *testing.T) {
	// Running P_min's decision rule over the full-information exchange is
	// correct but NOT optimal: the characterization must fail (Example
	// 7.1 in miniature).
	sys, err := BuildSystem(context.Background(), Context{Exchange: exchange.NewFIP(3), T: 1}, action.NewMin(1))
	if err != nil {
		t.Fatal(err)
	}
	if vs := checkOptimality(t, sys, -1, 1); len(vs) == 0 {
		t.Error("Pmin unexpectedly satisfies the FIP optimality characterization")
	}
}

func TestSynthesizeP0MatchesPmin(t *testing.T) {
	// Epistemic synthesis (§8 outlook): extracting a concrete protocol
	// from P0 in γ_min reproduces P_min exactly — Theorem 6.5 from the
	// synthesis side.
	c := Context{Exchange: exchange.NewMin(3), T: 1}
	synth, ms := synthDiff(t, c, P0, action.NewMin(1))
	if synth.Size() == 0 {
		t.Fatal("empty synthesis table")
	}
	if len(ms) != 0 {
		t.Fatalf("synth(P0) and Pmin differ: %v", ms[0])
	}
	// The synthesized system is self-consistent: its own actions implement
	// the program.
	if ms := checkImplements(t, build(t, c, synth), P0, 3); len(ms) != 0 {
		t.Errorf("synthesized system does not implement P0: %v", ms[0])
	}
}

func TestSynthesizeP0MatchesPbasic(t *testing.T) {
	_, ms := synthDiff(t, Context{Exchange: exchange.NewBasic(3), T: 1}, P0, action.NewBasic(3))
	if len(ms) != 0 {
		t.Fatalf("synth(P0) and Pbasic differ: %v", ms[0])
	}
}

func TestSynthesizeP1MatchesPopt(t *testing.T) {
	// Synthesis from P1 over the full-information exchange re-derives the
	// polynomial-time P_opt: Theorem A.21 from the synthesis side.
	c := Context{Exchange: exchange.NewFIP(3), T: 1}
	synth, ms := synthDiff(t, c, P1, action.NewOpt(1))
	if len(ms) != 0 {
		t.Fatalf("synth(P1) and Popt differ: %v", ms[0])
	}
	if ms := checkImplements(t, build(t, c, synth), P1, 3); len(ms) != 0 {
		t.Errorf("synthesized P1 system is not self-consistent: %v", ms[0])
	}
}

// TestSynthesisAtNMinusTOne pins the n−t = 1 boundary at n=2,t=1: with
// one nonfaulty agent, P0 decides 1 at time t where Pmin and Pbasic wait
// for t+1 — exactly two (agent, state) entries each, both at time 1 — while
// synth(P1) over Efip still equals Popt.
func TestSynthesisAtNMinusTOne(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    Context
		prog Program
		ref  model.ActionProtocol
		want int
	}{
		{"min", Context{Exchange: exchange.NewMin(2), T: 1}, P0, action.NewMin(1), 2},
		{"basic", Context{Exchange: exchange.NewBasic(2), T: 1}, P0, action.NewBasic(2), 2},
		{"fip", Context{Exchange: exchange.NewFIP(2), T: 1}, P1, action.NewOpt(1), 0},
	} {
		_, ms := synthDiff(t, tc.c, tc.prog, tc.ref)
		if len(ms) != tc.want {
			t.Fatalf("%s: synth(%v) differs from %s at %d entries, want %d: %v", tc.name, tc.prog, tc.ref.Name(), len(ms), tc.want, ms)
		}
		for _, m := range ms {
			if m.Time != 1 || m.Got != model.Noop || m.Want != model.Decide1 {
				t.Errorf("%s: %v; want time 1, protocol noop, program decide(1)", tc.name, m)
			}
		}
	}
}

// TestSynthesizedImplementsItsProgram: every slice of a synthesis comes
// from the build at that time as the horizon, and the protocol it yields
// implements its program in the system of the full horizon — P0 over Emin
// and Ebasic, P1 over Efip, in SO n=2,3,4 t=1 and crash n=3 t=1,2. The
// table sizes are pinned (min / basic / fip), and at SO n=3,t=2 only
// they are: there the synthesized systems are left unbuilt.
func TestSynthesizedImplementsItsProgram(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n, t    int
		crash   bool
		sizes   [3]int
		checked bool
	}{
		{"SO n=2", 2, 1, false, [3]int{20, 22, 52}, true},
		{"SO n=3", 3, 1, false, [3]int{30, 39, 462}, true},
		{"SO n=4", 4, 1, false, [3]int{40, 52, 3464}, true},
		{"crash n=3,t=1", 3, 1, true, [3]int{30, 39, 318}, true},
		{"crash n=3,t=2", 3, 2, true, [3]int{51, 69, 2184}, true},
		{"SO n=3,t=2", 3, 2, false, [3]int{51, 72, 29400}, false},
	} {
		for k, ex := range []struct {
			e    model.Exchange
			prog Program
		}{{exchange.NewMin(tc.n), P0}, {exchange.NewBasic(tc.n), P0}, {exchange.NewFIP(tc.n), P1}} {
			c := Context{Exchange: ex.e, T: tc.t, Crash: tc.crash}
			synth, err := Synthesize(context.Background(), c, ex.prog)
			if err != nil {
				t.Fatal(err)
			}
			name := tc.name + " " + ex.e.Name()
			if synth.Size() != tc.sizes[k] {
				t.Errorf("%s: synth(%v) has %d entries, want %d", name, ex.prog, synth.Size(), tc.sizes[k])
			}
			if !tc.checked {
				continue
			}
			if ms := checkImplements(t, build(t, c, synth), ex.prog, 3); len(ms) != 0 {
				t.Errorf("%s: synth(%v) does not implement %v: %v", name, ex.prog, ex.prog, ms)
			}
		}
	}
}

// TestSynthesizeQuotientMatchesPerRun: every build of a synthesis goes
// through the symmetry quotient over a KeyPermuter exchange, which is
// sound only if each partial table is invariant under agent relabeling.
// The same synthesis with the KeyPermuter hidden runs every scenario; the
// tables and every run's ledger must come out the same.
func TestSynthesizeQuotientMatchesPerRun(t *testing.T) {
	type tc struct {
		c    Context
		prog Program
	}
	cases := map[string]tc{
		"crash basic n=3": {Context{Exchange: exchange.NewBasic(3), T: 1, Crash: true}, P0},
		"crash fip n=3":   {Context{Exchange: exchange.NewFIP(3), T: 1, Crash: true}, P1},
	}
	for _, n := range []int{3, 4} {
		cases[fmt.Sprintf("min n=%d", n)] = tc{Context{Exchange: exchange.NewMin(n), T: 1}, P0}
		cases[fmt.Sprintf("basic n=%d", n)] = tc{Context{Exchange: exchange.NewBasic(n), T: 1}, P0}
		cases[fmt.Sprintf("fip n=%d", n)] = tc{Context{Exchange: exchange.NewFIP(n), T: 1}, P1}
	}
	for name, tc := range cases {
		quoSynth, err := Synthesize(context.Background(), tc.c, tc.prog)
		if err != nil {
			t.Fatal(err)
		}
		runSynth, err := Synthesize(context.Background(), perRunContext(tc.c), tc.prog)
		if err != nil {
			t.Fatal(err)
		}
		quoSys, runSys := build(t, tc.c, quoSynth), build(t, perRunContext(tc.c), runSynth)
		if indexOf(quoSys).units == nil || indexOf(runSys).units != nil {
			t.Fatalf("%s: the quotiented synthesis is not expanded, or the per-run one is", name)
		}
		if !maps.Equal(quoSynth.table, runSynth.table) {
			t.Fatalf("%s: the quotiented table (%d entries) differs from the per-run one (%d)", name, quoSynth.Size(), runSynth.Size())
		}
		if len(quoSys.Runs) != len(runSys.Runs) {
			t.Fatalf("%s: %d vs %d runs", name, len(quoSys.Runs), len(runSys.Runs))
		}
		for r := range runSys.Runs {
			if got, want := runLedger(quoSys, r), runLedger(runSys, r); got != want {
				t.Fatalf("%s: run %d differs:\nquotiented: %s\nper-run:    %s", name, r, got, want)
			}
		}
	}
}

func TestSynthesizedRunsUnderEngine(t *testing.T) {
	// The synthesized protocol is a real ActionProtocol: run it under the
	// engine on a pattern from its context and check it decides like Pmin.
	synth, err := Synthesize(context.Background(), Context{Exchange: exchange.NewMin(3), T: 1}, P0)
	if err != nil {
		t.Fatal(err)
	}
	pat := adversary.Silent(3, 3, 0)
	res, err := engine.Run(engine.Config{
		Exchange: exchange.NewMin(3),
		Action:   synth,
		Pattern:  pat,
		Inits:    adversary.UniformInits(3, model.One),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		if res.Decided(model.AgentID(i)) != model.One || res.Round(model.AgentID(i)) != 3 {
			t.Errorf("agent %d: %v in round %d, want 1 in round 3",
				i, res.Decided(model.AgentID(i)), res.Round(model.AgentID(i)))
		}
	}
}

func TestSynthesizedPanicsOutsideContext(t *testing.T) {
	synth, err := Synthesize(context.Background(), Context{Exchange: exchange.NewMin(2), T: 0, Horizon: 2}, P0)
	if err != nil {
		t.Fatal(err)
	}
	foreign := exchange.NewBasic(2).Initial(0, model.One)
	// While the table grows, a state at or past the cutoff does noop, and
	// one before it outside the table does noop and is reported; the
	// complete table panics.
	for cutoff, want := range map[int]bool{-1: true, 0: false, 1: false} {
		synth.noopFrom, synth.miss = cutoff, ""
		panicked := func() (panicked bool) {
			defer func() { panicked = recover() != nil }()
			synth.Act(0, foreign)
			return false
		}()
		if panicked != want {
			t.Errorf("cutoff %d: Act on a foreign time-0 state panicked: %v, want %v", cutoff, panicked, want)
		}
		if reported := synth.miss != ""; reported != (cutoff == 1) {
			t.Errorf("cutoff %d: Act on a foreign time-0 state reported %q", cutoff, synth.miss)
		}
	}
}

func TestMismatchString(t *testing.T) {
	m := Mismatch{Agent: 1, Run: 2, Time: 3, Key: "k", Got: model.Noop, Want: model.Decide0}
	s := m.String()
	if s == "" {
		t.Error("empty mismatch rendering")
	}
}

func TestProgramString(t *testing.T) {
	if P0.String() != "P0" || P1.String() != "P1" {
		t.Error("unexpected program names")
	}
}
