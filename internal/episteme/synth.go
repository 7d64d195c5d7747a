package episteme

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/model"
)

// Synthesized is a concrete action protocol extracted from a
// knowledge-based program: a lookup table from local states to actions,
// covering every state reachable in the program's own system. It realizes,
// for small parameters, the "epistemic synthesis" direction the paper's
// discussion proposes.
type Synthesized struct {
	name  string
	table map[string]model.Action
	// noopFrom is, while Synthesize grows the table, the first time it
	// does not cover yet: every state from then on does noop. It is -1
	// once the table is complete.
	noopFrom int
}

// Name identifies the synthesized protocol, e.g. "synth(P0)".
func (p *Synthesized) Name() string { return p.name }

// Size is the number of distinct (agent, state) entries in the table.
func (p *Synthesized) Size() int { return len(p.table) }

// Act looks the state up in the synthesized table. It panics on a state
// outside the table: such a state is not reachable in the context the
// protocol was synthesized for.
func (p *Synthesized) Act(i model.AgentID, s model.State) model.Action {
	if p.noopFrom >= 0 && s.Time() >= p.noopFrom {
		return model.Noop
	}
	a, ok := p.table[synthKey(i, s.Key())]
	if !ok {
		panic(fmt.Sprintf("episteme: %s has no action for agent %d state %s", p.name, i, s.Key()))
	}
	return a
}

func synthKey(i model.AgentID, stateKey string) string {
	return strconv.Itoa(int(i)) + "|" + stateKey
}

// Interface compliance.
var _ model.ActionProtocol = (*Synthesized)(nil)

// Synthesize constructs the system generated by the knowledge-based
// program itself, in Horizon+1 BuildSystem calls and no loop of its own.
// Knowledge at time m depends only on the runs' ledgers before m and on
// their time-m states and faulty sets, so for m = 0 … Horizon−1 it builds
// the system of the partial table — the table's actions before time m,
// noop from m on — evaluates the program once per (agent, class) of the
// time-m slots, resolving the decide-0 guards first and the decide-1 guard
// against them, and adds those actions to the table. The last build is the
// program's own system. Every build is BuildSystem's, memoizing executor
// and symmetry quotient included (docs/architecture.md, "Synthesis is
// Horizon+1 builds"); of the options only WithParallelism is forwarded —
// never a cache, since the table protocol's name does not pin its table.
// Results are bit-identical at every parallelism level. It returns the
// induced concrete protocol and the program's own interpreted system.
// Cancelling ctx aborts the construction with the cancellation cause.
func Synthesize(ctx context.Context, c Context, prog Program, opts ...Option) (*Synthesized, *System, error) {
	if c.Exchange == nil {
		return nil, nil, fmt.Errorf("episteme: Exchange is required")
	}
	par := WithParallelism(newOptions(opts).par)
	horizon := c.horizonOrDefault()
	synth := &Synthesized{name: "synth(" + prog.String() + ")", table: make(map[string]model.Action)}
	for m := 0; m < horizon; m++ {
		synth.noopFrom = m
		sys, err := BuildSystem(ctx, c, synth, par)
		if err != nil {
			return nil, nil, err
		}
		if err := sys.synthesizeSlice(ctx, prog, m, synth.table); err != nil {
			return nil, nil, err
		}
	}
	synth.noopFrom = -1
	sys, err := BuildSystem(ctx, c, synth, par)
	if err != nil {
		return nil, nil, err
	}
	return synth, sys, nil
}

// synthesizeSlice evaluates the program once per (agent, class) of the
// time-m slots and records the actions in table: phase A's past-determined
// guards first, then the decide-1 guard against phase A's decide-0
// resolutions.
func (s *System) synthesizeSlice(ctx context.Context, prog Program, m int, table map[string]model.Action) error {
	acts := make([][]model.Action, s.N)
	determined := make([][]bool, s.N)
	classes := func(i int, fn func(id model.AgentID, c int, p Point)) error {
		id := model.AgentID(i)
		return s.parallel(ctx, s.classCount(id, m), func(c int) {
			fn(id, c, Point{Run: s.rowRun(m, s.rowsOfClass(id, m, int32(c))[0]), Time: m})
		})
	}
	for i := range acts {
		acts[i] = make([]model.Action, s.classCount(model.AgentID(i), m))
		determined[i] = make([]bool, len(acts[i]))
		if err := classes(i, func(id model.AgentID, c int, p Point) {
			acts[i][c], determined[i][c] = s.kbpPhaseA(prog, id, p)
		}); err != nil {
			return err
		}
	}
	deciding0 := func(q Point, j model.AgentID) bool {
		c := s.classAt(j, m, q.Run)
		return determined[j][c] && acts[j][c] == model.Decide0
	}
	for i := range acts {
		if err := classes(i, func(id model.AgentID, c int, p Point) {
			if !determined[i][c] {
				acts[i][c] = s.kbpPhaseB(id, p, deciding0)
			}
		}); err != nil {
			return err
		}
	}
	for i, row := range acts {
		for c, key := range s.classKey[s.slot(model.AgentID(i), m)] {
			table[synthKey(model.AgentID(i), key)] = row[c]
		}
	}
	return nil
}

// Diff compares the table with the protocol that generated ref, a system
// of the same context: one Mismatch per distinct (agent, local state) of
// ref at a time before the horizon that the table covers and where ref's
// recorded action (Got) differs from the table's (Want), in the canonical
// first-occurrence order of CheckImplements, capped like it. An empty
// result means the two protocols agree on every state reachable under
// either: the two systems are then the same system, and a state of ref
// missing from the table is reachable only through an earlier
// disagreement (docs/architecture.md, "Synthesis is Horizon+1 builds").
func (p *Synthesized) Diff(ctx context.Context, ref *System, maxMismatches int) ([]Mismatch, error) {
	return ref.mismatches(ctx, maxMismatches, func(i model.AgentID, q Point) (model.Action, bool) {
		a, ok := p.table[synthKey(i, ref.Key(i, q))]
		return a, ok
	})
}
