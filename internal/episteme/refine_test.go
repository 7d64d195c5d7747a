package episteme

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/action"
	"repro/internal/exchange"
	"repro/internal/model"
)

// classFormula is a formula of an agent's local state: its value at the
// first point of each of the slot's classes.
type classFormula struct {
	name  string
	holds func(s *System, i model.AgentID, p Point) bool
}

// refinementFormulas are positive-knowledge formulas of run facts — the
// initial preferences, the faulty set and, through no-decided_N, the
// decisions, which Pmin makes alike over both exchanges: K_i ∃v,
// K_i ¬nonfaulty(j) and P1's common-knowledge guard K_i C_N(t-faulty ∧
// no-decided_N(1−v) ∧ ∃v).
func refinementFormulas(n int) []classFormula {
	var fs []classFormula
	for _, v := range []model.Value{model.Zero, model.One} {
		fs = append(fs, classFormula{fmt.Sprintf("K ∃%v", v), func(s *System, i model.AgentID, p Point) bool {
			return s.Knows(i, p, func(q Point) bool { return s.Exists(v, q) })
		}}, classFormula{fmt.Sprintf("K C_N ∃%v", v), func(s *System, i model.AgentID, p Point) bool {
			return s.KnowsCK(i, p, v)
		}})
	}
	for j := range model.AgentID(n) {
		fs = append(fs, classFormula{fmt.Sprintf("K faulty(%d)", j), func(s *System, i model.AgentID, p Point) bool {
			return s.Knows(i, p, func(q Point) bool { return !s.Nonfaulty(j, q) })
		}})
	}
	return fs
}

// classValues evaluates f once per class of the slot, at its first row.
func classValues(s *System, slot int, f classFormula) []bool {
	i, m, l := model.AgentID(slot%s.N), slot/s.N, s.frame.layout(slot/s.N)
	vals := make([]bool, 0, s.frame.keys(slot).len())
	s.frame.classes(slot).each(func(row int, c int32) {
		if int(c) == len(vals) {
			vals = append(vals, f.holds(s, i, Point{Run: l.first(row), Time: m}))
		}
	})
	return vals
}

// TestExchangeRefinement is monotonicity under exchange refinement: Pmin
// over Emin (min) and over Efip (fip+pmin), in every n ≤ 4 context of the
// theorem matrix, runs the same scenarios in the same order. The two
// labellings decide alike run by run; every Efip class before the horizon
// lies inside one Emin class; and every formula of refinementFormulas that
// holds at a point of ⟨Emin, Pmin⟩ holds there in ⟨Efip, Pmin⟩, at every
// time up to the horizon. The strict counts — Efip classes beyond Emin's,
// points where only Efip knows — are pinned per pair, so a vacuous pass
// shows, and so does a change to either partition that keeps the
// refinement (an expansion that skips a relabeling splits Efip classes,
// each still inside one Emin class).
func TestExchangeRefinement(t *testing.T) {
	for _, cx := range []struct {
		n, t   int
		crash  bool
		strict string // Efip classes beyond Emin's; points where only Efip knows
	}{
		{2, 1, false, "34 map[K C_N ∃0:126 K C_N ∃1:94 K faulty(0):104 K faulty(1):104 K ∃0:10 K ∃1:62]"},
		{3, 1, false, "432 map[K C_N ∃0:6516 K C_N ∃1:1260 K faulty(0):3216 K faulty(1):3216 K faulty(2):3216 K ∃0:132 K ∃1:3318]"},
		{4, 1, false, "3424 map[K C_N ∃0:226432 K C_N ∃1:17280 K faulty(0):74496 K faulty(1):74496 K faulty(2):74496 K faulty(3):74496 K ∃0:1104 K ∃1:112776]"},
		{3, 1, true, "288 map[K C_N ∃0:549 K C_N ∃1:99 K faulty(0):309 K faulty(1):309 K faulty(2):309 K ∃1:558]"},
		{3, 2, true, "2139 map[K C_N ∃0:8304 K C_N ∃1:2016 K faulty(0):14653 K faulty(1):14653 K faulty(2):14653 K ∃1:14622]"},
		{4, 2, true, "47320 map[K C_N ∃0:214488 K C_N ∃1:17832 K faulty(0):300851 K faulty(1):300851 K faulty(2):300851 K faulty(3):300851 K ∃1:436236]"},
	} {
		label := fmt.Sprintf("n=%d t=%d crash=%v", cx.n, cx.t, cx.crash)
		coarse := build(t, Context{Exchange: exchange.NewMin(cx.n), T: cx.t, Crash: cx.crash}, action.NewMin(cx.t))
		fine := build(t, Context{Exchange: exchange.NewFIP(cx.n), T: cx.t, Crash: cx.crash}, action.NewMin(cx.t))
		if len(fine.Runs) != len(coarse.Runs) || fine.Horizon != coarse.Horizon {
			t.Fatalf("%s: Efip has %d runs to horizon %d, Emin %d to %d", label, len(fine.Runs), fine.Horizon, len(coarse.Runs), coarse.Horizon)
		}
		for r := range fine.Runs {
			if fine.Runs[r].inits != coarse.Runs[r].inits || fine.Runs[r].Pattern.Key() != coarse.Runs[r].Pattern.Key() {
				t.Fatalf("%s: run %d is another scenario in each system", label, r)
			}
			if !slices.Equal(fine.labels.of(r), coarse.labels.of(r)) {
				t.Fatalf("%s: run %d decides %v over Efip and %v over Emin", label, r, fine.labels.of(r), coarse.labels.of(r))
			}
		}
		finer := 0 // Efip classes beyond Emin's, before the horizon
		for slot := range fine.Horizon * fine.N {
			i, m := model.AgentID(slot%fine.N), slot/fine.N
			inside := make([]int32, fine.frame.keys(slot).len())
			for r := range fine.Runs {
				fc, cc := fine.classAt(i, m, r), coarse.classAt(i, m, r)
				if inside[fc] == 0 {
					inside[fc] = cc + 1
				} else if inside[fc] != cc+1 {
					t.Fatalf("%s: agent %d's Efip class %d at time %d meets Emin classes %d and %d", label, i, fc, m, inside[fc]-1, cc)
				}
			}
			finer += len(inside) - coarse.frame.keys(slot).len()
		}
		strict := map[string]int{}
		for _, f := range refinementFormulas(cx.n) {
			for slot := range (fine.Horizon + 1) * fine.N {
				i, m := model.AgentID(slot%fine.N), slot/fine.N
				fv, cv := classValues(fine, slot, f), classValues(coarse, slot, f)
				for r := range fine.Runs {
					switch kf, kc := fv[fine.classAt(i, m, r)], cv[coarse.classAt(i, m, r)]; {
					case kc && !kf:
						t.Fatalf("%s: %s holds for agent %d at (run %d, time %d) over Emin, not over Efip", label, f.name, i, r, m)
					case kf && !kc:
						strict[f.name]++
					}
				}
			}
		}
		if got := fmt.Sprint(finer, " ", strict); got != cx.strict {
			t.Errorf("%s: Efip classes beyond Emin's and points only Efip knows %s, want %s", label, got, cx.strict)
		}
	}
}
