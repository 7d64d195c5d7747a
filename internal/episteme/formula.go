package episteme

import (
	"fmt"
	"strings"

	"repro/internal/model"
)

// Formula is an epistemic-temporal formula in the language of Section 2
// of the paper, interpreted at points of an interpreted System: primitive
// propositions about runs, boolean connectives, knowledge K_i, common
// knowledge among the nonfaulty agents C_N, and the temporal operators
// ○ (next), ⊖ (previous), □ (henceforth), and ◇ (eventually).
//
// Temporal operators are evaluated on the bounded trace: ○φ is false at
// the final time of a run and ⊖φ is false at time 0, matching the paper's
// convention for ⊖; □ and ◇ quantify over the remaining recorded times.
// All of the paper's protocols are quiescent by the default horizon t+2,
// so the bounded readings agree with the unbounded ones for the formulas
// used here.
type Formula interface {
	// Holds evaluates the formula at point p of sys.
	Holds(sys *System, p Point) bool
	// String renders the formula in a notation close to the paper's.
	String() string
}

// --- atoms ---------------------------------------------------------------

type atom struct {
	name string
	fn   func(sys *System, p Point) bool
}

func (a atom) Holds(sys *System, p Point) bool { return a.fn(sys, p) }
func (a atom) String() string                  { return a.name }

// Atom builds a primitive proposition from a point predicate.
func Atom(name string, fn func(sys *System, p Point) bool) Formula {
	return atom{name: name, fn: fn}
}

// TrueF is the constant true.
func TrueF() Formula { return Atom("true", func(*System, Point) bool { return true }) }

// InitIs is the paper's init_i = v.
func InitIs(i model.AgentID, v model.Value) Formula {
	return Atom(fmt.Sprintf("init_%d=%v", i, v), func(sys *System, p Point) bool {
		return sys.Runs[p.Run].Init(i) == v
	})
}

// DecidedIs is the paper's decided_i = v (with v = None for ⊥).
func DecidedIs(i model.AgentID, v model.Value) Formula {
	return Atom(fmt.Sprintf("decided_%d=%v", i, v), func(sys *System, p Point) bool {
		return sys.DecidedVal(i, p) == v
	})
}

// JustDecidedIs is the paper's jdecided_i = v.
func JustDecidedIs(i model.AgentID, v model.Value) Formula {
	return Atom(fmt.Sprintf("jdecided_%d=%v", i, v), func(sys *System, p Point) bool {
		return sys.JustDecided(i, v, p)
	})
}

// DecidingIs is the paper's deciding_i = v.
func DecidingIs(i model.AgentID, v model.Value) Formula {
	return Atom(fmt.Sprintf("deciding_%d=%v", i, v), func(sys *System, p Point) bool {
		return sys.Deciding(i, v, p)
	})
}

// NonfaultyF is the paper's i ∈ N.
func NonfaultyF(i model.AgentID) Formula {
	return Atom(fmt.Sprintf("%d∈N", i), func(sys *System, p Point) bool {
		return sys.Nonfaulty(i, p)
	})
}

// ExistsF is the paper's ∃v: some agent's initial preference is v.
func ExistsF(v model.Value) Formula {
	return Atom(fmt.Sprintf("∃%v", v), func(sys *System, p Point) bool {
		return sys.Exists(v, p)
	})
}

// TimeIs is the paper's time = m.
func TimeIs(m int) Formula {
	return Atom(fmt.Sprintf("time=%d", m), func(_ *System, p Point) bool {
		return p.Time == m
	})
}

// NoDecidedNF is the paper's no-decided_N(v).
func NoDecidedNF(v model.Value) Formula {
	return Atom(fmt.Sprintf("no-decided_N(%v)", v), func(sys *System, p Point) bool {
		return sys.NoDecidedN(v, p)
	})
}

// --- boolean connectives --------------------------------------------------

type notF struct{ f Formula }

func (n notF) Holds(sys *System, p Point) bool { return !n.f.Holds(sys, p) }
func (n notF) String() string                  { return "¬" + n.f.String() }

// Not is negation.
func Not(f Formula) Formula { return notF{f} }

type andF struct{ fs []Formula }

func (a andF) Holds(sys *System, p Point) bool {
	for _, f := range a.fs {
		if !f.Holds(sys, p) {
			return false
		}
	}
	return true
}
func (a andF) String() string { return joinFormulas(a.fs, " ∧ ") }

// And is conjunction (true when empty).
func And(fs ...Formula) Formula { return andF{fs} }

type orF struct{ fs []Formula }

func (o orF) Holds(sys *System, p Point) bool {
	for _, f := range o.fs {
		if f.Holds(sys, p) {
			return true
		}
	}
	return false
}
func (o orF) String() string { return joinFormulas(o.fs, " ∨ ") }

// Or is disjunction (false when empty).
func Or(fs ...Formula) Formula { return orF{fs} }

// Implies is material implication.
func Implies(a, b Formula) Formula {
	return Atom("("+a.String()+" ⇒ "+b.String()+")", func(sys *System, p Point) bool {
		return !a.Holds(sys, p) || b.Holds(sys, p)
	})
}

// Iff is material equivalence.
func Iff(a, b Formula) Formula {
	return Atom("("+a.String()+" ⇔ "+b.String()+")", func(sys *System, p Point) bool {
		return a.Holds(sys, p) == b.Holds(sys, p)
	})
}

func joinFormulas(fs []Formula, sep string) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// --- epistemic operators ---------------------------------------------------

type kF struct {
	i model.AgentID
	f Formula
	// memo caches the (local-state-determined) value of K_i f per system
	// and per indistinguishability class; without it nested K's are
	// quadratic in the class sizes.
	memo map[*System]map[kClass]bool
}

// kClass names an indistinguishability class by its interned index.
type kClass struct {
	slot  int
	class int32
}

func (k *kF) Holds(sys *System, p Point) bool {
	classes, ok := k.memo[sys]
	if !ok {
		classes = make(map[kClass]bool)
		k.memo[sys] = classes
	}
	key := kClass{sys.slot(k.i, p.Time), sys.classAt(k.i, p.Time, p.Run)}
	if v, ok := classes[key]; ok {
		return v
	}
	v := sys.Knows(k.i, p, func(q Point) bool { return k.f.Holds(sys, q) })
	classes[key] = v
	return v
}
func (k *kF) String() string { return fmt.Sprintf("K_%d %s", k.i, k.f) }

// K is the knowledge operator K_i. The returned formula caches its
// evaluations per local state; it is not safe for concurrent use.
func K(i model.AgentID, f Formula) Formula {
	return &kF{i: i, f: f, memo: make(map[*System]map[kClass]bool)}
}

type enF struct {
	f  Formula
	ks map[model.AgentID]Formula // per-agent K_i f, each with its own memo
}

func (e *enF) Holds(sys *System, p Point) bool {
	for i := 0; i < sys.N; i++ {
		id := model.AgentID(i)
		if !sys.Nonfaulty(id, p) {
			continue
		}
		ki, ok := e.ks[id]
		if !ok {
			ki = K(id, e.f)
			e.ks[id] = ki
		}
		if !ki.Holds(sys, p) {
			return false
		}
	}
	return true
}
func (e *enF) String() string { return "E_N " + e.f.String() }

// EN is "every nonfaulty agent knows" (the paper's E_S with S = N).
func EN(f Formula) Formula { return &enF{f: f, ks: make(map[model.AgentID]Formula)} }

type cnF struct{ f Formula }

func (c cnF) Holds(sys *System, p Point) bool {
	for _, r := range sys.CNReachable(p) {
		if !c.f.Holds(sys, Point{Run: r, Time: p.Time}) {
			return false
		}
	}
	return true
}
func (c cnF) String() string { return "C_N " + c.f.String() }

// CN is indexical common knowledge among the nonfaulty agents.
func CN(f Formula) Formula { return cnF{f} }

// --- temporal operators -----------------------------------------------------

type nextF struct{ f Formula }

func (x nextF) Holds(sys *System, p Point) bool {
	if p.Time >= sys.Horizon {
		return false
	}
	return x.f.Holds(sys, Point{Run: p.Run, Time: p.Time + 1})
}
func (x nextF) String() string { return "○" + x.f.String() }

// Next is the paper's ○: φ holds at the next time. False at the final
// recorded time.
func Next(f Formula) Formula { return nextF{f} }

type prevF struct{ f Formula }

func (x prevF) Holds(sys *System, p Point) bool {
	if p.Time == 0 {
		return false
	}
	return x.f.Holds(sys, Point{Run: p.Run, Time: p.Time - 1})
}
func (x prevF) String() string { return "⊖" + x.f.String() }

// Prev is the paper's ⊖: φ held at the previous time (false at time 0).
func Prev(f Formula) Formula { return prevF{f} }

type henceforthF struct{ f Formula }

func (x henceforthF) Holds(sys *System, p Point) bool {
	for m := p.Time; m <= sys.Horizon; m++ {
		if !x.f.Holds(sys, Point{Run: p.Run, Time: m}) {
			return false
		}
	}
	return true
}
func (x henceforthF) String() string { return "□" + x.f.String() }

// Henceforth is the paper's □, bounded to the recorded trace.
func Henceforth(f Formula) Formula { return henceforthF{f} }

type eventuallyF struct{ f Formula }

func (x eventuallyF) Holds(sys *System, p Point) bool {
	for m := p.Time; m <= sys.Horizon; m++ {
		if x.f.Holds(sys, Point{Run: p.Run, Time: m}) {
			return true
		}
	}
	return false
}
func (x eventuallyF) String() string { return "◇" + x.f.String() }

// Eventually is ◇ = ¬□¬, bounded to the recorded trace.
func Eventually(f Formula) Formula { return eventuallyF{f} }

// Valid reports whether the formula holds at every point of the system
// (the paper's I ⊨ φ), returning a falsifying point when it does not.
func Valid(sys *System, f Formula) (bool, Point) {
	for r := range sys.Runs {
		for m := 0; m <= sys.Horizon; m++ {
			p := Point{Run: r, Time: m}
			if !f.Holds(sys, p) {
				return false, p
			}
		}
	}
	return true, Point{}
}
