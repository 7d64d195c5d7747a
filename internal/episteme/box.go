package episteme

import (
	"context"
	"fmt"

	"repro/internal/model"
)

// BoxComponents computes the connected components of the S-⊡-reachability
// relation of Halpern, Moses, and Waarts (Section 7), for an indexical set
// S given by its membership test. Within a run, any time can reach any
// other time (the ⊡ part), so runs are the component units; two runs are
// joined when some agent belongs to S at equal-time points of both and has
// the same local state there. Grouping rides the interned index, so the
// pass is pure integer work. The result maps each run to a component id.
func (s *System) BoxComponents(member func(i model.AgentID, p Point) bool) []int {
	parent := make([]int, len(s.Runs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	// Group runs by (time, agent, class) among points where the agent is
	// an S-member; union each group.
	for m := 0; m <= s.Horizon; m++ {
		for i := 0; i < s.N; i++ {
			id := model.AgentID(i)
			// first[c] is the first S-member run seen in class c.
			first := make([]int, s.classCount(id, m))
			for c := range first {
				first[c] = -1
			}
			for r := range s.Runs {
				if !member(id, Point{Run: r, Time: m}) {
					continue
				}
				c := s.classAt(id, m, r)
				if first[c] < 0 {
					first[c] = r
				} else {
					union(first[c], r)
				}
			}
		}
	}
	comp := make([]int, len(s.Runs))
	for r := range comp {
		comp[r] = find(r)
	}
	return comp
}

// memberNAndDecided returns the membership test for the indexical sets
// N∧O (v = 1) and N∧Z (v = 0): nonfaulty agents that have decided v or
// are about to decide v at the point.
func (s *System) memberNAndDecided(v model.Value) func(model.AgentID, Point) bool {
	return func(i model.AgentID, p Point) bool {
		if !s.Nonfaulty(i, p) {
			return false
		}
		res := s.Runs[p.Run]
		return res.Decided(i) == v && res.Round(i) != 0 && res.Round(i) <= p.Time+1
	}
}

// CheckOptimalityFIP verifies both equivalences of Theorem 7.5 on the
// system (which must be generated by a full-information protocol):
//
//	i ∈ N ⇒ (○(decided_i = 0) ⇔ B_i^N(∃0 ∧ C□_{N∧O}∃0 ∧ ¬○(decided_i = 1)))
//	i ∈ N ⇒ (○(decided_i = 1) ⇔ B_i^N(∃1 ∧ C□_{N∧Z}∃1 ∧ ¬○(decided_i = 0)))
//
// It checks every point with time ≤ maxTime (pass s.Horizon-1 to check
// everything the trace determines; the ⊡-reachability is computed on the
// truncated system, which is faithful here because every decision happens
// by round t+2 and the trace extends beyond it). The belief is a function
// of i's local state, so it is evaluated once per indistinguishability
// class (foldClasses) and read per point; violations come back in the
// canonical (value, run, time, agent) order regardless of parallelism. An
// empty result is a machine check that the generating protocol is optimal
// with respect to γ_fip. When max > 0 caps the report, the final entry is
// a "... and N more violations (truncated)" notice. Cancelling ctx aborts
// the check with the cancellation cause.
func (s *System) CheckOptimalityFIP(ctx context.Context, maxTime, max int) ([]string, error) {
	if err := s.checkableSystem(); err != nil {
		return nil, err
	}
	if maxTime < 0 || maxTime >= s.Horizon {
		maxTime = s.Horizon - 1
	}
	perShard := make([][]string, 2*len(s.Runs))
	// Scratch shared by the two values: compOK[c] = every run in component
	// c satisfies ∃v (components are named by a member run), and
	// believes[slot][c] = B_i^N(∃v ∧ C□∃v ∧ ¬○(decided_i = 1−v)) in class
	// c — the body holds at every nonfaulty alternative.
	compOK := make([]bool, len(s.Runs))
	var believes [][]bool

	for vi, v := range []model.Value{model.Zero, model.One} {
		v := v
		comp := s.BoxComponents(s.memberNAndDecided(v.Flip()))
		for r := range compOK {
			compOK[r] = true
		}
		for r := range s.Runs {
			if !s.Exists(v, Point{Run: r}) {
				compOK[comp[r]] = false
			}
		}
		var err error
		believes, err = s.foldClasses(ctx, believes, maxTime, false, func(i model.AgentID, q Point) bool {
			if !s.Nonfaulty(i, q) {
				return true // B^N: only nonfaulty alternatives count
			}
			qres := s.Runs[q.Run]
			decidedOther := qres.Decided(i) == v.Flip() &&
				qres.Round(i) != 0 && qres.Round(i) <= q.Time+1
			return s.Exists(v, q) && compOK[comp[q.Run]] && !decidedOther
		})
		if err != nil {
			return nil, err
		}

		base := vi * len(s.Runs)
		err = s.parallel(ctx, len(s.Runs), func(r int) {
			perShard[base+r] = s.optimalityViolations(v, believes, r, maxTime)
		})
		if err != nil {
			return nil, err
		}
	}
	return mergeViolations(perShard, max), nil
}

// optimalityViolations checks both sides of the value-v equivalence at
// every point of one run with time ≤ maxTime.
func (s *System) optimalityViolations(v model.Value, believes [][]bool, r, maxTime int) []string {
	var out []string
	res := s.Runs[r]
	for m := 0; m <= maxTime; m++ {
		p := Point{Run: r, Time: m}
		for i := 0; i < s.N; i++ {
			id := model.AgentID(i)
			if !s.Nonfaulty(id, p) {
				continue
			}
			lhs := res.Decided(id) == v && res.Round(id) != 0 && res.Round(id) <= m+1
			rhs := believes[s.slot(id, m)][s.classAt(id, m, r)]
			if lhs != rhs {
				out = append(out, fmt.Sprintf(
					"v=%v run %d time %d agent %d: ○decided=%v but characterization=%v",
					v, r, m, i, lhs, rhs))
			}
		}
	}
	return out
}
