package episteme

import (
	"strings"
	"testing"

	"repro/internal/model"
)

// formulaSystem builds a small shared system for the formula tests.
func formulaSystem(t *testing.T) *System {
	t.Helper()
	return buildMin(t, 3, 1)
}

func TestS5KnowledgeAxioms(t *testing.T) {
	// The knowledge relation is an equivalence, so S5 must hold. Checked
	// exhaustively on γ_min(3,1) for a representative φ.
	sys := formulaSystem(t)
	phi := ExistsF(model.Zero)
	for i := 0; i < sys.N; i++ {
		id := model.AgentID(i)
		k := K(id, phi)
		// T (veridicality): K_i φ ⇒ φ.
		if ok, p := Valid(sys, Implies(k, phi)); !ok {
			t.Errorf("axiom T fails at %v", p)
		}
		// 4 (positive introspection): K_i φ ⇒ K_i K_i φ.
		if ok, p := Valid(sys, Implies(k, K(id, k))); !ok {
			t.Errorf("axiom 4 fails at %v", p)
		}
		// 5 (negative introspection): ¬K_i φ ⇒ K_i ¬K_i φ.
		if ok, p := Valid(sys, Implies(Not(k), K(id, Not(k)))); !ok {
			t.Errorf("axiom 5 fails at %v", p)
		}
		// K (distribution): K_i(φ ⇒ ψ) ⇒ (K_i φ ⇒ K_i ψ).
		psi := NoDecidedNF(model.Zero)
		if ok, p := Valid(sys, Implies(K(id, Implies(phi, psi)), Implies(k, K(id, psi)))); !ok {
			t.Errorf("axiom K fails at %v", p)
		}
	}
}

func TestCommonKnowledgeFixpoint(t *testing.T) {
	// C_N φ ⇒ E_N(φ ∧ C_N φ): the fixpoint property of common knowledge
	// ([5], used throughout the paper's proofs). Checked on the FIP
	// system where C_N actually becomes true.
	sys := buildFIP(t, 3, 1, 0)
	phi := ExistsF(model.One)
	cn := CN(phi)
	if ok, p := Valid(sys, Implies(cn, EN(And(phi, cn)))); !ok {
		t.Errorf("fixpoint property fails at %v", p)
	}
	// And C_N is veridical (N is nonempty: t < n).
	if ok, p := Valid(sys, Implies(cn, phi)); !ok {
		t.Errorf("C_N veridicality fails at %v", p)
	}
	// Non-vacuity: C_N(∃1) holds somewhere.
	if ok, _ := Valid(sys, Not(cn)); ok {
		t.Fatal("C_N(∃1) never holds; test is vacuous")
	}
}

func TestTemporalOperators(t *testing.T) {
	sys := formulaSystem(t)
	// Pick the failure-free run with inits (0,1,1): agent 0 decides 0 in
	// round 1, everyone by round 2.
	runIdx := -1
	for r, res := range sys.Runs {
		if res.Pattern.NumFaulty() == 0 &&
			res.Init(0) == model.Zero && res.Init(1) == model.One && res.Init(2) == model.One {
			runIdx = r
			break
		}
	}
	if runIdx < 0 {
		t.Fatal("expected run not found")
	}
	p0 := Point{Run: runIdx, Time: 0}

	if !Next(DecidedIs(0, model.Zero)).Holds(sys, p0) {
		t.Error("○(decided_0=0) should hold at time 0")
	}
	if DecidedIs(0, model.Zero).Holds(sys, p0) {
		t.Error("decided_0=0 must not hold at time 0")
	}
	if !DecidingIs(0, model.Zero).Holds(sys, p0) {
		t.Error("deciding_0=0 should hold at time 0")
	}
	if Prev(TrueF()).Holds(sys, p0) {
		t.Error("⊖true must be false at time 0")
	}
	if !Eventually(DecidedIs(2, model.Zero)).Holds(sys, p0) {
		t.Error("◇(decided_2=0) should hold")
	}
	if !Henceforth(ExistsF(model.Zero)).Holds(sys, p0) {
		t.Error("□∃0 should hold (inits are static)")
	}
	if Henceforth(DecidedIs(2, model.Zero)).Holds(sys, p0) {
		t.Error("□(decided_2=0) must fail at time 0")
	}
	// jdecided = decided ∧ ⊖(decided=⊥): equivalence on this run.
	jd := JustDecidedIs(0, model.Zero)
	alt := And(DecidedIs(0, model.Zero), Prev(DecidedIs(0, model.None)))
	for m := 0; m <= sys.Horizon; m++ {
		p := Point{Run: runIdx, Time: m}
		if jd.Holds(sys, p) != alt.Holds(sys, p) {
			t.Errorf("jdecided mismatch at time %d", m)
		}
	}
}

func TestP0GuardsAsFormulas(t *testing.T) {
	// Express P0's decide-0 and decide-1 guards in the formula language
	// and cross-check against KBPAction at every point where the agent is
	// undecided.
	sys := formulaSystem(t)
	for i := 0; i < sys.N; i++ {
		id := model.AgentID(i)
		var jdAny, decAny []Formula
		for j := 0; j < sys.N; j++ {
			jdAny = append(jdAny, JustDecidedIs(model.AgentID(j), model.Zero))
			decAny = append(decAny, DecidingIs(model.AgentID(j), model.Zero))
		}
		guard0 := Or(InitIs(id, model.Zero), K(id, Or(jdAny...)))
		guard1 := K(id, Not(Or(decAny...)))

		sys.Points(sys.Horizon-1, func(p Point) {
			if sys.DecidedVal(id, p).IsSet() {
				return
			}
			want := sys.KBPAction(P0, id, p)
			var got model.Action
			switch {
			case guard0.Holds(sys, p):
				got = model.Decide0
			case guard1.Holds(sys, p):
				got = model.Decide1
			default:
				got = model.Noop
			}
			if got != want {
				t.Fatalf("formula guards give %v, KBPAction gives %v at %v agent %d", got, want, p, i)
			}
		})
	}
}

func TestTerminationAsFormula(t *testing.T) {
	// The paper's Termination property as a validity: i ∈ N ⇒ ◇ decided_i.
	sys := formulaSystem(t)
	for i := 0; i < sys.N; i++ {
		id := model.AgentID(i)
		decided := Or(DecidedIs(id, model.Zero), DecidedIs(id, model.One))
		if ok, p := Valid(sys, Implies(NonfaultyF(id), Eventually(decided))); !ok {
			t.Errorf("Termination fails for agent %d at %v", i, p)
		}
	}
}

func TestAgreementAsFormula(t *testing.T) {
	// Agreement: ¬(i∈N ∧ j∈N ∧ decided_i=v ∧ decided_j=1−v).
	sys := formulaSystem(t)
	for i := 0; i < sys.N; i++ {
		for j := 0; j < sys.N; j++ {
			f := Not(And(
				NonfaultyF(model.AgentID(i)),
				NonfaultyF(model.AgentID(j)),
				DecidedIs(model.AgentID(i), model.Zero),
				DecidedIs(model.AgentID(j), model.One),
			))
			if ok, p := Valid(sys, f); !ok {
				t.Errorf("Agreement fails for (%d,%d) at %v", i, j, p)
			}
		}
	}
}

func TestFormulaStrings(t *testing.T) {
	f := Implies(K(1, ExistsF(model.Zero)), CN(NoDecidedNF(model.One)))
	s := f.String()
	for _, want := range []string{"K_1", "∃0", "C_N", "no-decided_N(1)", "⇒"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering %q missing %q", s, want)
		}
	}
	if got := Next(Prev(TimeIs(1))).String(); got != "○⊖time=1" {
		t.Errorf("temporal rendering = %q", got)
	}
	if got := And(TrueF(), Or()).String(); !strings.Contains(got, "true") {
		t.Errorf("boolean rendering = %q", got)
	}
}
