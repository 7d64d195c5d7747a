package episteme

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

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
	// miss is, while Synthesize grows the table, the least report of a
	// state a build met outside it; mu guards it.
	mu   sync.Mutex
	miss string
}

// Name identifies the synthesized protocol, e.g. "synth(P0)".
func (p *Synthesized) Name() string { return p.name }

// Size is the number of distinct (agent, state) entries in the table.
func (p *Synthesized) Size() int { return len(p.table) }

// Act looks the state up in the synthesized table. It panics on a state
// outside the table: such a state is not reachable in the context the
// protocol was synthesized for. While Synthesize grows the table, such a
// state is a key that collides across times or hides a field; Act then
// does noop and the build fails with the least such report.
func (p *Synthesized) Act(i model.AgentID, s model.State) model.Action {
	if p.noopFrom >= 0 && s.Time() >= p.noopFrom {
		return model.Noop
	}
	key := string(s.AppendKey(nil))
	a, ok := p.table[synthKey(i, key)]
	if !ok {
		miss := fmt.Sprintf("episteme: %s has no action for agent %d at time %d, state %s", p.name, i, s.Time(), key)
		if p.noopFrom < 0 {
			panic(miss)
		}
		p.mu.Lock()
		if p.miss == "" || miss < p.miss {
			p.miss = miss
		}
		p.mu.Unlock()
	}
	return a
}

func synthKey(i model.AgentID, stateKey string) string {
	return strconv.Itoa(int(i)) + "|" + stateKey
}

// Interface compliance.
var _ model.ActionProtocol = (*Synthesized)(nil)

// Synthesize derives the concrete protocol the knowledge-based program
// induces in the context, in Horizon BuildSystem calls and no loop of its
// own. Knowledge at time m depends only on the runs' actions before m and
// on their time-m states and faulty sets, and the build at horizon m has
// exactly the time-m points of the build at the context's horizon: every
// failure pattern of horizon m is the prefix of one of the full horizon,
// and a crash after round m is, up to time m, a faulty agent that never
// crashes.
// So for m = 0 … Horizon−1 it builds the system of the partial table — the
// table's actions before time m, noop from m on — at horizon max(m, 1),
// evaluates the program once per (agent, class) of that build's time-m
// slots, resolving the decide-0 guards first and the decide-1 guard
// against them, and adds those actions to the table. Once the table is
// complete it stops: no build ever runs at the full horizon, and a caller
// that wants the program's own system builds it with BuildSystem(ctx, c,
// synth). Every build is BuildSystem's, memoizing executor and symmetry
// quotient included (docs/architecture.md, "Synthesis grows the horizon");
// of the options only WithParallelism is forwarded — never a cache, since
// the table protocol's name does not pin its table. Results are
// bit-identical at every parallelism level. A context whose full-horizon
// enumeration is refused is refused here too. Cancelling ctx aborts the
// construction with the cancellation cause.
func Synthesize(ctx context.Context, c Context, prog Program, opts ...Option) (*Synthesized, error) {
	if c.Exchange == nil {
		return nil, fmt.Errorf("episteme: Exchange is required")
	}
	horizon := c.horizonOrDefault()
	if _, err := c.patternSource(c.Exchange.N(), horizon); err != nil {
		return nil, err
	}
	par := WithParallelism(newOptions(opts).par)
	synth := &Synthesized{name: "synth(" + prog.String() + ")", table: make(map[string]model.Action)}
	for m := 0; m < horizon; m++ {
		synth.noopFrom = m
		// A Horizon of 0 means the default, so slice 0 comes from a
		// horizon-1 build, whose every action is noop.
		c.Horizon = max(m, 1)
		sys, err := BuildSystem(ctx, c, synth, par)
		if synth.miss != "" {
			return nil, errors.New(synth.miss)
		}
		if err != nil {
			return nil, err
		}
		if err := sys.synthesizeSlice(ctx, prog, m, synth.table); err != nil {
			return nil, err
		}
	}
	synth.noopFrom = -1
	return synth, nil
}

// synthesizeSlice evaluates the program once per (agent, class) of the
// time-m slots — for m ≥ 1 the build's last layer, interned on first read
// — and records the actions in table: phase A's past-determined guards
// first, then the decide-1 guard against phase A's decide-0 resolutions.
func (s *System) synthesizeSlice(ctx context.Context, prog Program, m int, table map[string]model.Action) error {
	acts := make([][]model.Action, s.N)
	determined := make([][]bool, s.N)
	classes := func(i int, fn func(id model.AgentID, c int, p Point)) error {
		id := model.AgentID(i)
		ms, l := s.frame.members(s.slot(id, m)), s.frame.layout(m)
		return s.parallel(ctx, len(acts[i]), func(c int) {
			fn(id, c, Point{Run: l.first(int(ms.of(int32(c))[0])), Time: m})
		})
	}
	for i := range acts {
		acts[i] = make([]model.Action, s.frame.keys(s.slot(model.AgentID(i), m)).len())
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
		keys := s.frame.keys(s.slot(model.AgentID(i), m))
		for c, a := range row {
			table[synthKey(model.AgentID(i), string(keys.at(int32(c))))] = a
		}
	}
	return nil
}

// Diff compares the table with the protocol that generated ref, a system
// of the same context: one Mismatch per distinct (agent, local state) of
// ref at a time before the horizon that the table covers and where ref's
// action (Got) differs from the table's (Want), in the canonical
// first-occurrence order of CheckImplements, capped like it. An empty
// result means the two protocols agree on every state reachable under
// either: the two systems are then the same system, and a state of ref
// missing from the table is reachable only through an earlier
// disagreement (docs/architecture.md, "Synthesis grows the horizon").
func (p *Synthesized) Diff(ctx context.Context, ref *System, maxMismatches int) ([]Mismatch, error) {
	return ref.mismatches(ctx, maxMismatches, func(i model.AgentID, q Point) (model.Action, bool) {
		a, ok := p.table[synthKey(i, ref.Key(i, q))]
		return a, ok
	})
}
