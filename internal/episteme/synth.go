package episteme

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/engine"
	"repro/internal/model"
)

// Synthesized is a concrete action protocol extracted from a
// knowledge-based program by fixpoint construction: a lookup table from
// local states to actions, covering every state reachable in the program's
// own system. It realizes, for small parameters, the "epistemic synthesis"
// direction the paper's discussion proposes.
type Synthesized struct {
	name  string
	table map[string]model.Action
}

// Name identifies the synthesized protocol, e.g. "synth(P0)".
func (p *Synthesized) Name() string { return p.name }

// Size is the number of distinct (agent, state) entries in the table.
func (p *Synthesized) Size() int { return len(p.table) }

// Act looks the state up in the synthesized table. It panics on a state
// outside the table: such a state is not reachable in the context the
// protocol was synthesized for.
func (p *Synthesized) Act(i model.AgentID, s model.State) model.Action {
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
// program itself: at each time it evaluates the program's knowledge tests
// against the partially built system (sound because knowledge at time m
// depends only on time-m states), resolves the decide-0 guards first and
// the decide-1 guard against them, advances every run one round, and
// repeats. Run skeletons come from the same streaming scenario source
// BuildSystem enumerates from; each time slice's index is interned as it
// is built, so the fixpoint's knowledge tests and its memoization are
// dense-int lookups evaluated once per (agent, state) class. The run
// advance and the index build shard over the worker pool; the guard
// evaluation itself is sequential, so the result is bit-identical at
// every parallelism level. It returns the induced concrete protocol and
// the program's own interpreted system. Cancelling ctx aborts the
// construction with the cancellation cause.
func Synthesize(ctx context.Context, c Context, prog Program, opts ...Option) (*Synthesized, *System, error) {
	if c.Exchange == nil {
		return nil, nil, fmt.Errorf("episteme: Exchange is required")
	}
	o := newOptions(opts)
	n := c.Exchange.N()
	horizon := c.horizonOrDefault()
	sys := &System{N: n, T: c.T, Horizon: horizon, par: o.par}

	// Materialize the runs' skeletons — pattern + inits + initial states —
	// from the shared scenario source.
	src, err := c.scenarioSource(n, horizon)
	if err != nil {
		return nil, nil, err
	}
	for sc, ok := src.Next(); ok; sc, ok = src.Next() {
		res := engine.NewResult(n, horizon, sc.Pattern, sc.Inits)
		states := make([]model.State, n)
		for i := 0; i < n; i++ {
			states[i] = c.Exchange.Initial(model.AgentID(i), res.Inits[i])
		}
		res.States[0] = states
		sys.Runs = append(sys.Runs, res)
	}
	if err := sys.buildIndex(ctx, 0, 1); err != nil {
		return nil, nil, err
	}

	table := make(map[string]model.Action)
	phaseA := make([][]model.Action, len(sys.Runs))
	determined := make([][]bool, len(sys.Runs))
	for r := range sys.Runs {
		phaseA[r] = make([]model.Action, n)
		determined[r] = make([]bool, n)
	}

	for m := 0; m < horizon; m++ {
		if ctx.Err() != nil {
			return nil, nil, context.Cause(ctx)
		}
		// Phase A: past-determined guards, evaluated once per (agent,
		// state) class of the time slice.
		type phaseAEntry struct {
			act      model.Action
			det      bool
			resolved bool
		}
		memoA := make([][]phaseAEntry, n)
		for i := 0; i < n; i++ {
			memoA[i] = make([]phaseAEntry, sys.classCount(model.AgentID(i), m))
		}
		for r := range sys.Runs {
			p := Point{Run: r, Time: m}
			for i := 0; i < n; i++ {
				id := model.AgentID(i)
				cls := sys.classAt(id, m, r)
				e := &memoA[i][cls]
				if !e.resolved {
					e.act, e.det = sys.kbpPhaseA(prog, id, p)
					e.resolved = true
				}
				phaseA[r][i], determined[r][i] = e.act, e.det
			}
		}
		// Phase B: the decide-1 guard, against phase-A decide-0
		// resolutions.
		deciding0 := func(q Point, j model.AgentID) bool {
			return phaseA[q.Run][j] == model.Decide0 && determined[q.Run][j]
		}
		type phaseBEntry struct {
			act      model.Action
			resolved bool
		}
		memoB := make([][]phaseBEntry, n)
		for i := 0; i < n; i++ {
			memoB[i] = make([]phaseBEntry, sys.classCount(model.AgentID(i), m))
		}
		for r := range sys.Runs {
			p := Point{Run: r, Time: m}
			acts := make([]model.Action, n)
			for i := 0; i < n; i++ {
				id := model.AgentID(i)
				if determined[r][i] {
					acts[i] = phaseA[r][i]
				} else {
					cls := sys.classAt(id, m, r)
					e := &memoB[i][cls]
					if !e.resolved {
						e.act = sys.kbpPhaseB(id, p, deciding0)
						e.resolved = true
					}
					acts[i] = e.act
				}
			}
			sys.Runs[r].Record(m, acts)
		}
		// Record the fixpoint's choices once per (agent, state) class.
		for i := 0; i < n; i++ {
			id := model.AgentID(i)
			slot := m*n + i
			for cls, members := range sys.classRuns[slot] {
				rep := sys.rowRun(m, members[0])
				table[synthKey(id, sys.classKey[slot][cls])] = sys.Runs[rep].Actions[m][i]
			}
		}
		// Advance every run one round, sharded over the worker pool (runs
		// are independent; each worker writes only its own run's slots).
		// The first step error cancels the round's outstanding work via
		// the context cause — the same fail-fast contract the Runner path
		// has — and the lowest-indexed recorded error is reported.
		stepCtx, cancelStep := context.WithCancelCause(ctx)
		stepErrs := make([]error, len(sys.Runs))
		err := sys.parallel(stepCtx, len(sys.Runs), func(r int) {
			res := sys.Runs[r]
			next, stats, err := engine.Step(c.Exchange, res.Pattern, m, res.States[m], res.Actions[m])
			if err != nil {
				stepErrs[r] = err
				cancelStep(err)
				return
			}
			res.Stats.Add(stats)
			res.States[m+1] = next
		})
		cancelStep(nil)
		for _, stepErr := range stepErrs {
			if stepErr != nil {
				return nil, nil, stepErr
			}
		}
		if err != nil {
			return nil, nil, err
		}
		if err := sys.buildIndex(ctx, m+1, m+2); err != nil {
			return nil, nil, err
		}
	}

	return &Synthesized{name: "synth(" + prog.String() + ")", table: table}, sys, nil
}
