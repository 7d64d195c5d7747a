package episteme

import (
	"context"
	"fmt"

	"repro/internal/model"
)

// CheckSafety verifies the safety condition of Definition 6.2 for the
// system (which should be generated by an implementation of P0). It
// returns a description of every violated clause instance, in run order;
// an empty result machine-checks Proposition 6.4 for the system's
// context. Clause (2) binds only an agent that does not know it is
// faulty: it asks for an indistinguishable run in which i is nonfaulty,
// and an agent that knows it is faulty has none (docs/architecture.md,
// "Def 6.2 clause 2: which agents it binds"). Every clause quantifies
// over the runs agent i cannot distinguish from the point, so each is
// evaluated once per indistinguishability class (foldClasses) and read per row; only the
// runs of a failing row are walked, and the report is identical at every
// parallelism level. When max > 0 caps the report, the final entry is a
// "... and N more violations (truncated)" notice. Cancelling ctx aborts
// the check with the cancellation cause.
func (s *System) CheckSafety(ctx context.Context, max int) ([]string, error) {
	if err := s.checkableSystem(); err != nil {
		return nil, err
	}
	// Clause (1)'s witness: some indistinguishable run is all-1.
	allOnes, err := s.foldClasses(ctx, nil, s.Horizon, true, func(_ model.AgentID, q Point, _ uint64, _ []firstDecide) bool {
		return !s.Exists(model.Zero, q)
	})
	if err != nil {
		return nil, err
	}
	// Clause (2)'s premise ¬K_i(⋀_j ¬(deciding_j = 0)); deciding_j is
	// undefined beyond the trace, so clause (2) stops at Horizon-1.
	someDeciding0, err := s.foldClasses(ctx, nil, s.Horizon-1, true, func(_ model.AgentID, q Point, _ uint64, ds []firstDecide) bool {
		for _, d := range ds {
			if d.in(model.Zero, q.Time+1) {
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
	chained, err := s.foldClasses(ctx, nil, s.Horizon-1, true, func(j model.AgentID, q Point, faulty uint64, ds []firstDecide) bool {
		if faultyAt(faulty, j) {
			return false
		}
		for jp, d := range ds {
			if !faultyAt(faulty, model.AgentID(jp)) && d.in(model.Zero, q.Time) {
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
	witness, err := s.foldClasses(ctx, nil, s.Horizon-1, true, func(i model.AgentID, q Point, faulty uint64, ds []firstDecide) bool {
		if faultyAt(faulty, i) {
			return false
		}
		for j, d := range ds {
			jd := model.AgentID(j)
			if faultyAt(faulty, jd) || !d.in(model.Zero, q.Time+1) {
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

	// The clause instances at agent i of a row, at its first run q.
	// Clause (1): no 0-chain received by (r,m) → some indistinguishable
	// point lies in an all-1 run; at time Horizon a row is a run. A 0-chain
	// of length m' ends with its last agent first deciding 0 in round m'+1
	// (Definition in Section 6), and under any implementation of P0 the
	// converse holds as well (the Lemma A.5 argument: the decide-0 guard is
	// veridical, so each 0-decision is anchored by an actual
	// just-decided-0 predecessor in the same run, back to an initial 0), so
	// receipt by time m is having decided 0 by round m+1. Clause (2): i
	// cannot rule out a 0-decision, has not decided before round m+1 and
	// does not know it is faulty; deciding_j is undefined beyond the trace.
	classOf := s.classTables(s.Horizon)
	clauses := func(i model.AgentID, m, row int, q Point, d firstDecide) (one, two bool) {
		slot := s.slot(i, m)
		c := classOf[slot].at(row)
		one = !allOnes[slot][c] && !d.by(model.Zero, m+1)
		if m < s.Horizon {
			two = !d.by(d.v, m) && someDeciding0[slot][c] && !witness[slot][c] && !s.knowsFaulty(i, q)
		}
		return one, two
	}
	rp := report{max: max}
	err = s.screen(ctx, s.Horizon, func(m, row int, q Point, _ uint64, ds []firstDecide) (bad uint64) {
		for i, d := range ds {
			if one, two := clauses(model.AgentID(i), m, row, q, d); one || two {
				bad |= 1 << uint(i)
			}
		}
		return bad
	}, func(i model.AgentID, m, run, row, first int) {
		one, two := clauses(i, m, row, Point{Run: first, Time: m}, s.labels.of(first)[i])
		if one && rp.keep() {
			rp.lines = append(rp.lines, fmt.Sprintf("clause 1: run %d time %d agent %d", run, m, i))
		}
		if two && rp.keep() {
			rp.lines = append(rp.lines, fmt.Sprintf("clause 2: run %d time %d agent %d", run, m, i))
		}
	})
	if err != nil {
		return nil, err
	}
	return rp.done(), nil
}

// knowsFaulty reports K_i(i ∉ N) at p: every row of i's class has i faulty.
func (s *System) knowsFaulty(i model.AgentID, p Point) bool {
	faulty := s.frame.faulty(p.Time)
	return s.everyRow(i, p, func(row int) bool { return faultyAt(faulty[row], i) })
}
