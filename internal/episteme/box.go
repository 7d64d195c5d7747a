package episteme

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/model"
)

// BoxComponents computes the connected components of the S-⊡-reachability
// relation of Halpern, Moses, and Waarts (Section 7), for an indexical set
// S whose members at a point member returns as a mask. Within a run, any
// time can reach any other time (the ⊡ part), so runs are the component
// units; two runs are joined when some agent belongs to S at equal-time
// points of both and has the same local state there. member must read
// only the labelling and the faulty set, which the runs of a row share
// (frame): it is asked once per time-0 row and time. A row with a member
// joins its own runs, which share every local state, and each agent's
// member rows of a class are joined through their first runs. The result
// maps each run to a component id.
func (s *System) BoxComponents(member func(q Point, faulty uint64) uint64) []int {
	parent := make([]int, len(s.Runs))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		if ra, rb := find(a), find(b); ra != rb {
			parent[ra] = rb
		}
	}
	l0, faulty0 := s.frame.layout(0), s.frame.faulty(0)
	masks := make([]uint64, l0.n) // the time-0 rows' members at time m
	joined := make([]bool, l0.n)  // the time-0 rows whose runs are one component
	classOf, first := make([]classIDs, s.N), make([][]int, s.N)
	for m := 0; m <= s.Horizon; m++ {
		for row := range masks {
			masks[row] = member(Point{Run: l0.first(row), Time: m}, faulty0[row])
		}
		// first[i][c] is the first S-member run seen in agent i's class c,
		// plus one: 0 is none yet.
		for i := range first {
			slot := s.slot(model.AgentID(i), m)
			classOf[i], first[i] = s.frame.classes(slot), make([]int, s.frame.keys(slot).len())
		}
		l := s.frame.layout(m)
		for row := range l.n {
			run := l.first(row)
			row0 := l0.row(run)
			mask := masks[row0]
			if mask == 0 {
				continue
			}
			// A row's runs lie in one time-0 row; once that row is joined,
			// joining them again would change nothing.
			if !joined[row0] {
				l.each(row, func(r int) bool { union(r, run); return true })
				joined[row0] = l == l0 // the time-m rows are the time-0 rows
			}
			for ; mask != 0; mask &= mask - 1 {
				i := bits.TrailingZeros64(mask)
				if c := classOf[i].at(row); first[i][c] == 0 {
					first[i][c] = run + 1
				} else {
					union(first[i][c]-1, run)
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
// are about to decide v at the point. It reads the labelling and the
// faulty set only.
func (s *System) memberNAndDecided(v model.Value) func(Point, uint64) uint64 {
	return func(p Point, faulty uint64) uint64 {
		var members uint64
		for i, d := range s.labels.of(p.Run) {
			if id := model.AgentID(i); d.by(v, p.Time+1) && !faultyAt(faulty, id) {
				members |= 1 << uint(i)
			}
		}
		return members
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
// class (foldClasses) and read per row; only the runs of a failing row are
// walked, and violations come back in the canonical (value, run, time,
// agent) order regardless of parallelism. An empty result is a machine
// check that the generating protocol is optimal with respect to γ_fip.
// When max > 0 caps the report, the final entry is a "... and N more
// violations (truncated)" notice. Cancelling ctx aborts the check with the
// cancellation cause.
func (s *System) CheckOptimalityFIP(ctx context.Context, maxTime, max int) ([]string, error) {
	if err := s.checkableSystem(); err != nil {
		return nil, err
	}
	if maxTime < 0 || maxTime >= s.Horizon {
		maxTime = s.Horizon - 1
	}
	rp := report{max: max}
	// Scratch shared by the two values: compOK[c] = every run in component
	// c satisfies ∃v (components are named by a member run), and
	// believes[slot][c] = B_i^N(∃v ∧ C□∃v ∧ ¬○(decided_i = 1−v)) in class
	// c — the body holds at every nonfaulty alternative.
	compOK := make([]bool, len(s.Runs))
	var believes [][]bool

	for _, v := range []model.Value{model.Zero, model.One} {
		comp := s.BoxComponents(s.memberNAndDecided(v.Flip()))
		for r := range compOK {
			compOK[r] = true
		}
		for r := range s.Runs {
			if !s.Exists(v, Point{Run: r}) {
				compOK[comp[r]] = false
			}
		}
		// compOK[comp[r]] is a row function: a row that is not a run is a
		// prefix unit (indexFrame), a unit with an N∧Z (N∧O) member is one
		// component, and a unit with none has none at the horizon either,
		// so its runs are singletons whose compOK is the unit's ∃v
		// (docs/architecture.md, "Readers").
		var err error
		believes, err = s.foldClasses(ctx, believes, maxTime, false, func(i model.AgentID, q Point, faulty uint64, ds []firstDecide) bool {
			if faultyAt(faulty, i) {
				return true // B^N: only nonfaulty alternatives count
			}
			return s.Exists(v, q) && compOK[comp[q.Run]] && !ds[i].by(v.Flip(), q.Time+1)
		})
		if err != nil {
			return nil, err
		}

		// The equivalence fails at a nonfaulty agent whose ○decided_i = v
		// differs from the belief.
		classOf := s.classTables(maxTime)
		err = s.screen(ctx, maxTime, func(m, row int, q Point, faulty uint64, ds []firstDecide) (bad uint64) {
			for i, d := range ds {
				slot := m*s.N + i
				if !faultyAt(faulty, model.AgentID(i)) && d.by(v, m+1) != believes[slot][classOf[slot].at(row)] {
					bad |= 1 << uint(i)
				}
			}
			return bad
		}, func(i model.AgentID, m, run, _, _ int) {
			if rp.keep() {
				lhs := s.labels.of(run)[i].by(v, m+1)
				rp.lines = append(rp.lines, fmt.Sprintf(
					"v=%v run %d time %d agent %d: ○decided=%v but characterization=%v",
					v, run, m, i, lhs, !lhs))
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return rp.done(), nil
}

// OneClassFlips counts the one-class relabellings of the system's
// labelling that keep the spec and decide earlier (passingFlips): each is
// a protocol over the same runs that strictly dominates the stack's. Over
// Efip in E6's contexts they are exactly the classes of
// CheckOptimalityFIP's ⇐ lines (TestThm75MatchesOneClassFlips): Theorem
// 7.5's ⇐ direction read without knowledge.
func (s *System) OneClassFlips() (int, error) {
	if err := s.checkableSystem(); err != nil {
		return 0, err
	}
	return len(s.passingFlips()), nil
}

// flip names a one-class relabelling: agent i's class c at time m decides
// v.
type flip struct {
	v    model.Value
	m, i int
	c    int32
}

// passingFlips returns the flips of s's labelling that keep the spec and
// decide earlier. Over Efip a protocol is a labelling of a frame that does
// not depend on it, so relabelling one pre-horizon class (m, i, c) of an
// agent that has not decided there as "decide v" is a competitor over the
// same runs, in which agent i alone decides otherwise: v, in round m+1, in
// the class's runs. The flip passes when v is some agent's initial
// preference in each of them (Validity, at faulty deciders too, as E6's
// spec column checks it), every other nonfaulty decider decides v in each
// where i is nonfaulty (Agreement), and i is nonfaulty in one: there it
// now decides earlier, so a passing flip is a protocol that strictly
// dominates the stack. It reads only the labelling's decisions, the
// frame's member lists and faulty masks, and the runs' initial
// preferences, all row functions.
func (s *System) passingFlips() map[flip]bool {
	flips, l := map[flip]bool{}, s.frame.layout(0)
	for slot := range s.Horizon * s.N {
		m, i := slot/s.N, slot%s.N
		faulty, ms := s.frame.faulty(m), s.frame.members(slot)
		for c := range int32(len(ms.off) - 1) {
			rows := ms.of(c)
			if d := s.labels.ofRow(l, int(rows[0]))[i]; d.round != 0 && int(d.round) <= m+1 {
				continue // decided before m, or deciding in round m+1: nothing earlier to gain
			}
			for _, v := range []model.Value{model.Zero, model.One} {
				spec, earlier := true, false
				for _, row := range rows {
					ds, f := s.labels.ofRow(l, int(row)), faulty[row]
					spec = spec && s.Exists(v, Point{Run: l.first(int(row))})
					if faultyAt(f, model.AgentID(i)) {
						continue
					}
					earlier = true
					for j, d := range ds {
						spec = spec && (j == i || faultyAt(f, model.AgentID(j)) || d.round == 0 || d.v == v)
					}
				}
				if spec && earlier {
					flips[flip{v, m, i, c}] = true
				}
			}
		}
	}
	return flips
}
