package episteme

import (
	"context"
	"fmt"
	goruntime "runtime"
	"slices"
	"testing"

	"repro/internal/action"
	"repro/internal/exchange"
	"repro/internal/model"
)

// The oracles below are the definitional per-point evaluators of Theorem
// 7.5 and Definition 6.2: every knowledge or witness condition is
// re-evaluated at every point by scanning the point's whole
// indistinguishability class. They cost Σ|class|² and exist only as the
// reference the class-folded checkers are compared against.

// oracleOptimality is the value-v half of CheckOptimalityFIP with the
// belief evaluated per point through System.Knows.
func oracleOptimality(s *System, v model.Value, maxTime int) []string {
	if maxTime < 0 || maxTime >= s.Horizon {
		maxTime = s.Horizon - 1
	}
	var out []string
	comp := s.BoxComponents(s.memberNAndDecided(v.Flip()))
	compOK := make(map[int]bool)
	for r := range s.Runs {
		c := comp[r]
		if _, seen := compOK[c]; !seen {
			compOK[c] = true
		}
		if !s.Exists(v, Point{Run: r}) {
			compOK[c] = false
		}
	}
	for r, res := range s.Runs {
		for m := 0; m <= maxTime; m++ {
			p := Point{Run: r, Time: m}
			for i := 0; i < s.N; i++ {
				id := model.AgentID(i)
				if !s.Nonfaulty(id, p) {
					continue
				}
				lhs := res.Decided(id) == v && res.Round(id) != 0 && res.Round(id) <= m+1
				rhs := s.Knows(id, p, func(q Point) bool {
					if !s.Nonfaulty(id, q) {
						return true // B^N: only nonfaulty alternatives count
					}
					qres := s.Runs[q.Run]
					decidedOther := qres.Decided(id) == v.Flip() &&
						qres.Round(id) != 0 && qres.Round(id) <= q.Time+1
					return s.Exists(v, q) && compOK[comp[q.Run]] && !decidedOther
				})
				if lhs != rhs {
					out = append(out, fmt.Sprintf(
						"v=%v run %d time %d agent %d: ○decided=%v but characterization=%v",
						v, r, m, i, lhs, rhs))
				}
			}
		}
	}
	return out
}

// oracleSafety is CheckSafety with every clause evaluated per point.
func oracleSafety(s *System) []string {
	var out []string
	for r, res := range s.Runs {
		for m := 0; m <= s.Horizon; m++ {
			p := Point{Run: r, Time: m}
			for i := 0; i < s.N; i++ {
				id := model.AgentID(i)
				if !s.receivedChainBy(id, r, m) && !oracleExistsIndistAllOnes(s, id, p) {
					out = append(out, fmt.Sprintf("clause 1: run %d time %d agent %d", r, m, i))
				}
				if m >= s.Horizon {
					continue
				}
				decidedBefore := res.Round(id) != 0 && res.Round(id) <= m
				cannotRuleOut := !s.Knows(id, p, func(q Point) bool {
					for j := 0; j < s.N; j++ {
						if s.Deciding(model.AgentID(j), model.Zero, q) {
							return false
						}
					}
					return true
				})
				if decidedBefore || !cannotRuleOut {
					continue
				}
				if !oracleSafetyClause2Witness(s, id, p) {
					out = append(out, fmt.Sprintf("clause 2: run %d time %d agent %d", r, m, i))
				}
			}
		}
	}
	return out
}

// oracleExistsIndistAllOnes reports whether some run indistinguishable
// from p to agent i has every initial preference equal to 1.
func oracleExistsIndistAllOnes(s *System, i model.AgentID, p Point) bool {
	for _, r := range s.runsOfClass(i, p.Time, s.classAt(i, p.Time, p.Run)) {
		allOnes := true
		for _, v := range s.Runs[r].Inits {
			if v != model.One {
				allOnes = false
				break
			}
		}
		if allOnes {
			return true
		}
	}
	return false
}

// oracleSafetyClause2Witness searches for the runs r' (and, for m ≥ 1,
// r”) required by clause (2) of Definition 6.2.
func oracleSafetyClause2Witness(s *System, i model.AgentID, p Point) bool {
	m := p.Time
	for _, rp := range s.runsOfClass(i, m, s.classAt(i, m, p.Run)) {
		q := Point{Run: rp, Time: m}
		if !s.Nonfaulty(i, q) {
			continue
		}
		for j := 0; j < s.N; j++ {
			jd := model.AgentID(j)
			if !s.Nonfaulty(jd, q) || !s.Deciding(jd, model.Zero, q) {
				continue
			}
			if m == 0 {
				return true
			}
			// Need r'' with r'_j(m) = r''_j(m), j and some j' nonfaulty in
			// r'', and j' deciding 0 in round m of r''.
			for _, rpp := range s.runsOfClass(jd, m, s.classAt(jd, m, rp)) {
				qq := Point{Run: rpp, Time: m}
				if !s.Nonfaulty(jd, qq) {
					continue
				}
				for jp := 0; jp < s.N; jp++ {
					jpd := model.AgentID(jp)
					if !s.Nonfaulty(jpd, qq) {
						continue
					}
					res := s.Runs[rpp]
					if res.Round(jpd) == m && res.Decided(jpd) == model.Zero {
						return true
					}
				}
			}
		}
	}
	return false
}

// TestCheckersMatchPerPointOracle asserts the class-folded checkers
// return exactly the oracle's full violation lists — on systems that
// satisfy the theorems, on systems with real violations of each kind, and
// at several parallelism levels.
func TestCheckersMatchPerPointOracle(t *testing.T) {
	fip := func(n int) Context { return Context{Exchange: exchange.NewFIP(n), T: 1} }
	cases := []struct {
		name   string
		c      Context
		act    model.ActionProtocol
		slow   bool // skipped under -short and -race
		wantOp bool // real optimality violations expected
		wantSf bool // real safety violations expected
	}{
		{name: "fip+Popt n=3", c: fip(3), act: action.NewOpt(1), wantSf: true},
		{name: "fip+Pmin n=3", c: fip(3), act: action.NewMin(1), wantOp: true, wantSf: true},
		{name: "min n=3", c: Context{Exchange: exchange.NewMin(3), T: 1}, act: action.NewMin(1)},
		{name: "basic n=3", c: Context{Exchange: exchange.NewBasic(3), T: 1}, act: action.NewBasic(3)},
		{name: "fip+Pslow n=3", c: fip(3), act: slowFIPAction{}, wantOp: true, wantSf: true},
		{name: "fip+Plate0 n=3", c: fip(3), act: lateZeroAction{}, wantOp: true, wantSf: true},
		{name: "fip+Popt n=4", c: fip(4), act: action.NewOpt(1), slow: true, wantSf: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && (testing.Short() || raceEnabled) {
				t.Skip("the per-point oracle at n=4 takes about a minute, ten under the race detector")
			}
			var wantOpt, wantSafety []string
			for _, par := range []int{1, goruntime.GOMAXPROCS(0), 7} {
				sys, err := BuildSystem(context.Background(), tc.c, tc.act, WithParallelism(par))
				if err != nil {
					t.Fatal(err)
				}
				if par == 1 {
					wantOpt = append(oracleOptimality(sys, model.Zero, -1), oracleOptimality(sys, model.One, -1)...)
					wantSafety = oracleSafety(sys)
					if tc.wantOp != (len(wantOpt) > 0) || tc.wantSf != (len(wantSafety) > 0) {
						t.Fatalf("oracle found %d optimality and %d safety violations; expected some: %v, %v — the comparison is vacuous",
							len(wantOpt), len(wantSafety), tc.wantOp, tc.wantSf)
					}
				}
				if got := checkOptimality(t, sys, -1, 0); !slices.Equal(got, wantOpt) {
					t.Errorf("par=%d: CheckOptimalityFIP returned %d violations, oracle %d; first difference: %s",
						par, len(got), len(wantOpt), firstDiff(got, wantOpt))
				}
				if got := checkSafety(t, sys, 0); !slices.Equal(got, wantSafety) {
					t.Errorf("par=%d: CheckSafety returned %d violations, oracle %d; first difference: %s",
						par, len(got), len(wantSafety), firstDiff(got, wantSafety))
				}
			}
		})
	}
}

// firstDiff renders the first position where two reports disagree.
func firstDiff(got, want []string) string {
	for k := 0; k < len(got) || k < len(want); k++ {
		var g, w string
		if k < len(got) {
			g = got[k]
		}
		if k < len(want) {
			w = want[k]
		}
		if g != w {
			return fmt.Sprintf("entry %d: got %q, want %q", k, g, w)
		}
	}
	return "none"
}
