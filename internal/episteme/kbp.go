package episteme

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/model"
)

// Program identifies one of the paper's knowledge-based programs.
type Program int

// The paper's knowledge-based programs.
const (
	// P0 is the program of Section 6: decide 0 on an initial 0 or on
	// knowing that someone just decided 0; decide 1 on knowing that nobody
	// can be deciding 0.
	P0 Program = iota + 1
	// P1 is the program of Section 7: P0 extended with the two
	// common-knowledge guards that fire when the nonfaulty agents attain
	// common knowledge of who the t faulty agents are.
	P1
)

// String names the program.
func (p Program) String() string {
	switch p {
	case P0:
		return "P0"
	case P1:
		return "P1"
	default:
		return "unknown"
	}
}

// kbpPhaseA evaluates the guards of the knowledge-based program that
// depend only on the past and present: the decided check, P1's
// common-knowledge guards, and the decide-0 guard. When it cannot
// determine the action (the remaining choice is between the decide-1
// guard and noop, which depends on this round's decide-0 resolutions of
// other agents) it reports determined = false.
func (s *System) kbpPhaseA(prog Program, i model.AgentID, p Point) (model.Action, bool) {
	// if decided_i ≠ ⊥ then noop
	if s.DecidedVal(i, p).IsSet() {
		return model.Noop, true
	}
	if prog == P1 {
		// if K_i(C_N(t-faulty ∧ no-decided_N(1) ∧ ∃0)) then decide(0)
		if s.KnowsCK(i, p, model.Zero) {
			return model.Decide0, true
		}
		// if K_i(C_N(t-faulty ∧ no-decided_N(0) ∧ ∃1)) then decide(1)
		if s.KnowsCK(i, p, model.One) {
			return model.Decide1, true
		}
	}
	// if init_i = 0 ∨ K_i(∨_j jdecided_j = 0) then decide(0)
	// (init_i is read off the run's initial preferences rather than the
	// local state, which no System keeps; State().Init() equals them by the
	// State contract.)
	if s.Runs[p.Run].Init(i) == model.Zero {
		return model.Decide0, true
	}
	someJustDecided0 := func(q Point) bool {
		for j := 0; j < s.N; j++ {
			if s.JustDecided(model.AgentID(j), model.Zero, q) {
				return true
			}
		}
		return false
	}
	if s.knowsOfRows(i, p, someJustDecided0) {
		return model.Decide0, true
	}
	return model.Noop, false
}

// kbpPhaseB resolves the decide-1 guard K_i(⋀_j ¬(deciding_j = 0)), with
// "j is deciding 0 at q" supplied by the caller: the labelling of a
// completed system, or the phase-A resolutions while Synthesize grows its
// table — either way a row function, asked once per row (frame).
func (s *System) kbpPhaseB(i model.AgentID, p Point, deciding0 func(q Point, j model.AgentID) bool) model.Action {
	nobodyDeciding0 := func(q Point) bool {
		for j := 0; j < s.N; j++ {
			if deciding0(q, model.AgentID(j)) {
				return false
			}
		}
		return true
	}
	if s.knowsOfRows(i, p, nobodyDeciding0) {
		return model.Decide1
	}
	return model.Noop
}

// KBPAction evaluates the knowledge-based program for agent i at point p,
// with every knowledge test interpreted in this system — which must be the
// system generated by the candidate implementation, per the definition of
// "P implements P-kb in γ" (Section 4).
func (s *System) KBPAction(prog Program, i model.AgentID, p Point) model.Action {
	s.mustCheckable()
	if a, determined := s.kbpPhaseA(prog, i, p); determined {
		return a
	}
	return s.kbpPhaseB(i, p, func(q Point, j model.AgentID) bool {
		return s.Deciding(j, model.Zero, q)
	})
}

// Mismatch records a local state where the concrete protocol and the
// knowledge-based program disagree.
type Mismatch struct {
	// Agent is the disagreeing agent.
	Agent model.AgentID
	// Run and Time locate a representative point carrying the state.
	Run, Time int
	// Key is the local state's fingerprint.
	Key string
	// Got is the concrete protocol's action; Want the program's.
	Got, Want model.Action
	// More, when positive, marks a truncation notice instead of a
	// disagreement: More further mismatches were found beyond the
	// caller's cap. The other fields are zero on such an entry.
	More int
}

// String renders the mismatch (or the truncation notice).
func (m Mismatch) String() string {
	if m.More > 0 {
		return truncated(m.More, "mismatches")
	}
	return fmt.Sprintf("agent %d at (run %d, time %d): protocol %v, program %v [state %s]",
		m.Agent, m.Run, m.Time, m.Got, m.Want, m.Key)
}

// CheckImplements verifies that the system's generating protocol
// implements the knowledge-based program: at every reachable local state,
// the protocol's action equals the program's action with knowledge
// interpreted in this very system. An empty result is a machine check of
// Theorem 6.5 (P_min/P0 in γ_min), Theorem 6.6 (P_basic/P0 in γ_basic), or
// Theorem A.21 (P_opt/P1 in γ_fip), depending on how the system was built.
//
// Both sides are functions of the local state, so each distinct (agent,
// state) class is checked once; the slots shard over the worker pool
// (for P1 the per-time C_N condensations are prebuilt concurrently), and
// disagreements come back in the canonical first-occurrence order
// regardless of parallelism. When maxMismatches > 0 caps the report, the
// final entry is a truncation notice carrying the count of the dropped
// tail (Mismatch.More). Cancelling ctx aborts the check with the
// cancellation cause.
func (s *System) CheckImplements(ctx context.Context, prog Program, maxMismatches int) ([]Mismatch, error) {
	if err := s.checkableSystem(); err != nil {
		return nil, err
	}
	// The knowledge tests and the C_N layers read the member lists: they
	// are made first, one slot per worker.
	if err := s.parallel(ctx, s.Horizon*s.N, func(slot int) { s.frame.members(slot) }); err != nil {
		return nil, err
	}
	if prog == P1 {
		if err := s.prebuildCN(ctx); err != nil {
			return nil, err
		}
	}
	return s.mismatches(ctx, maxMismatches, func(i model.AgentID, p Point) (model.Action, bool) {
		return s.KBPAction(prog, i, p), true
	})
}

// mismatches asks want once per distinct (agent, local state) of the times
// before the horizon and reports where its action differs from the
// labelled one; ok = false from want skips the state. A state is its slot
// and class there (a key names its time, conformance convention 10, so no
// agent meets one state in two slots), asked at the first run of the
// class's lowest row, the state's first occurrence: a slot's walk meets
// each class first at that row, since ids are by first appearance and rows
// ascend with their first runs. The slots walk on the worker pool, and the
// mismatches come back in the canonical first-occurrence order;
// maxMismatches caps the report as CheckImplements documents.
func (s *System) mismatches(ctx context.Context, maxMismatches int, want func(i model.AgentID, p Point) (model.Action, bool)) ([]Mismatch, error) {
	if err := s.checkableSystem(); err != nil {
		return nil, err
	}
	found := make([][]Mismatch, s.Horizon*s.N)
	err := s.parallel(ctx, len(found), func(slot int) {
		i, m, l := model.AgentID(slot%s.N), slot/s.N, s.frame.layout(slot/s.N)
		next := int32(0) // the first class the walk has not met
		s.frame.classes(slot).each(func(row int, c int32) {
			if c != next {
				return
			}
			next++
			p := Point{Run: l.first(row), Time: m}
			act, ok := want(i, p)
			if got := s.labels.act(i, m, p.Run); ok && got != act {
				found[slot] = append(found[slot], Mismatch{Agent: i, Run: p.Run, Time: m, Key: s.Key(i, p), Got: got, Want: act})
			}
		})
	})
	if err != nil {
		return nil, err
	}
	out := slices.Concat(found...)
	// The states' first occurrences, in the canonical (run, time, agent) order.
	slices.SortFunc(out, func(a, b Mismatch) int {
		return cmp.Or(cmp.Compare(a.Run, b.Run), cmp.Compare(a.Time, b.Time), cmp.Compare(a.Agent, b.Agent))
	})
	if maxMismatches > 0 && len(out) > maxMismatches {
		extra := len(out) - maxMismatches
		out = append(out[:maxMismatches], Mismatch{More: extra})
	}
	return out, nil
}
