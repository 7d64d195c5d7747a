package episteme

import (
	"context"
	"fmt"

	"repro/internal/model"
)

// receivedChainBy reports whether agent i has received a 0-chain by time
// m in the given run. A 0-chain of length m' ends with its last agent
// first deciding 0 in round m'+1 (Definition in Section 6), and under any
// implementation of P0 the converse holds as well (the Lemma A.5
// argument: the decide-0 guard is veridical, so each 0-decision is
// anchored by an actual just-decided-0 predecessor in the same run, back
// to an initial 0). Receipt by time m is therefore equivalent to having
// decided 0 by round m+1.
func (s *System) receivedChainBy(i model.AgentID, run, m int) bool {
	res := s.Runs[run]
	return res.Decided(i) == model.Zero && res.Round(i) != 0 && res.Round(i) <= m+1
}

// CheckSafety verifies the safety condition of Definition 6.2 for the
// system (which should be generated by an implementation of P0). It
// returns a description of every violated clause instance, in run order;
// an empty result machine-checks Proposition 6.4 for the system's
// context. Every clause quantifies over the runs agent i cannot
// distinguish from the point, so each is evaluated once per
// indistinguishability class (foldClasses) and read per point; the report
// is identical at every parallelism level. When max > 0 caps the report,
// the final entry is a "... and N more violations (truncated)" notice.
// Cancelling ctx aborts the check with the cancellation cause.
func (s *System) CheckSafety(ctx context.Context, max int) ([]string, error) {
	if err := s.checkableSystem(); err != nil {
		return nil, err
	}
	// Clause (1)'s witness: some indistinguishable run is all-1.
	allOnes, err := s.foldClasses(ctx, nil, s.Horizon, true, func(_ model.AgentID, q Point) bool {
		for _, v := range s.Runs[q.Run].Inits {
			if v != model.One {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	// Clause (2)'s premise ¬K_i(⋀_j ¬(deciding_j = 0)); deciding_j is
	// undefined beyond the trace, so clause (2) stops at Horizon-1.
	someDeciding0, err := s.foldClasses(ctx, nil, s.Horizon-1, true, func(_ model.AgentID, q Point) bool {
		for j := 0; j < s.N; j++ {
			if s.Deciding(model.AgentID(j), model.Zero, q) {
				return true
			}
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	// Clause (2)'s witnesses, innermost first. chained[slot(j,m)][c]: some
	// run r'' of j's class c has j and some j' nonfaulty, j' deciding 0 in
	// round m of r''.
	chained, err := s.foldClasses(ctx, nil, s.Horizon-1, true, func(j model.AgentID, q Point) bool {
		if !s.Nonfaulty(j, q) {
			return false
		}
		for jp := 0; jp < s.N; jp++ {
			if jpd := model.AgentID(jp); s.Nonfaulty(jpd, q) && s.JustDecided(jpd, model.Zero, q) {
				return true
			}
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	// witness[slot(i,m)][c]: some run r' of i's class c has i and some j
	// nonfaulty, j deciding 0 at (r',m), and (for m ≥ 1) an r'' as above
	// that j cannot distinguish from r'.
	witness, err := s.foldClasses(ctx, nil, s.Horizon-1, true, func(i model.AgentID, q Point) bool {
		if !s.Nonfaulty(i, q) {
			return false
		}
		for j := 0; j < s.N; j++ {
			jd := model.AgentID(j)
			if !s.Nonfaulty(jd, q) || !s.Deciding(jd, model.Zero, q) {
				continue
			}
			if q.Time == 0 || chained[s.slot(jd, q.Time)][s.classAt(jd, q.Time, q.Run)] {
				return true
			}
		}
		return false
	})
	if err != nil {
		return nil, err
	}

	perRun := make([][]string, len(s.Runs))
	err = s.parallel(ctx, len(s.Runs), func(r int) {
		perRun[r] = s.safetyViolations(r, allOnes, someDeciding0, witness)
	})
	if err != nil {
		return nil, err
	}
	return mergeViolations(perRun, max), nil
}

// mergeViolations concatenates per-shard violation lists in shard order
// and applies the cap, appending the truncation notice when violations
// were dropped.
func mergeViolations(shards [][]string, max int) []string {
	var out []string
	for _, vs := range shards {
		out = append(out, vs...)
	}
	if max > 0 && len(out) > max {
		extra := len(out) - max
		out = append(out[:max], truncated(extra, "violations"))
	}
	return out
}

// safetyViolations reads one run's clause instances off the per-class
// tables, in (time, agent, clause) order.
func (s *System) safetyViolations(r int, allOnes, someDeciding0, witness [][]bool) []string {
	var out []string
	res := s.Runs[r]
	for m := 0; m <= s.Horizon; m++ {
		for i := 0; i < s.N; i++ {
			id := model.AgentID(i)
			slot := s.slot(id, m)
			c := s.classAt(id, m, r)

			// Clause (1): no 0-chain received by (r,m) → some
			// indistinguishable point lies in an all-1 run.
			if !s.receivedChainBy(id, r, m) && !allOnes[slot][c] {
				out = append(out, fmt.Sprintf("clause 1: run %d time %d agent %d", r, m, i))
			}

			// Clause (2): premise — i cannot rule out a 0-decision and
			// has not decided before round m+1.
			if m >= s.Horizon {
				continue // deciding_j is undefined beyond the trace
			}
			decidedBefore := res.Round(id) != 0 && res.Round(id) <= m
			if !decidedBefore && someDeciding0[slot][c] && !witness[slot][c] {
				out = append(out, fmt.Sprintf("clause 2: run %d time %d agent %d", r, m, i))
			}
		}
	}
	return out
}
