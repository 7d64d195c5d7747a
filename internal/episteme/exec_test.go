package episteme

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
)

// TestMemoExecMatchesEngine holds the round memo to the plain engine. Every
// run it executes through core.Runner, at parallelism 1 and 4, must read
// as engine.RunBuffered's run of the same scenario, state keys included.
// Runs with equal inits and equal drops through round m took one path
// through the graph, so they must alias one time-m row; and under Emin,
// whose states are values, runs of different drop histories must meet in
// one node somewhere, or equal state vectors stopped converging.
func TestMemoExecMatchesEngine(t *testing.T) {
	for _, cell := range []struct {
		kind   string
		n, t   int
		stride int // every stride-th scenario of the sweep
	}{{"SO", 3, 1, 1}, {"crash", 4, 2, 1}, {"SO", 3, 2, 16}} {
		if raceEnabled && cell.n*cell.t > 3 {
			continue // the race detector needs the concurrency, not the size
		}
		for _, name := range []string{"min", "basic", "fip", "fip-nock", "naive"} {
			t.Run(fmt.Sprintf("%s-n%d-t%d/%s", cell.kind, cell.n, cell.t, name), func(t *testing.T) {
				st := core.MustStack(name, core.WithN(cell.n), core.WithT(cell.t))
				c := ContextFor(st)
				c.Crash = cell.kind == "crash"
				memoAgainstEngine(t, c, st.Action, cell.stride, name == "min")
			})
		}
	}
}

// memoWalk is one memo's side of memoAgainstEngine: the runs of its
// Runner and what they have shown of its graph so far.
type memoWalk struct {
	par     int
	out     <-chan core.RunOutcome
	rowOf   map[memoHistory]*model.State
	firstOf map[*model.State]memoHistory
	merged  int // rows a run of another history reached first
}

// memoHistory is a path from a root: the inits and the drops through
// round m.
type memoHistory struct {
	m     int
	inits uint32
	drops [8]uint64
}

// memoAgainstEngine runs every stride-th scenario of c through a fresh
// memo at parallelism 1 and another at 4, in lockstep, and checks each run
// against the plain engine's and the aliasing of its rows.
func memoAgainstEngine(t *testing.T, c Context, act model.ActionProtocol, stride int, converges bool) {
	t.Helper()
	n, horizon := c.Exchange.N(), c.horizonOrDefault()
	stack := cacheStack(c, act, n, horizon)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var walks []*memoWalk
	for _, par := range []int{1, 4} {
		src, err := c.scenarioSource(n, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if src, err = core.Stride(src, 0, stride); err != nil {
			t.Fatal(err)
		}
		runner := core.NewRunner(stack, core.WithExecutor(newMemoExec(horizon)), core.WithParallelism(par))
		walks = append(walks, &memoWalk{par: par, out: runner.StreamFrom(ctx, src),
			rowOf: make(map[memoHistory]*model.State), firstOf: make(map[*model.State]memoHistory)})
	}
	buf := engine.NewBuffers()
	for runs := 0; ; runs++ {
		var want *engine.Result
		for _, w := range walks {
			oc, ok := <-w.out
			if !ok {
				if runs == 0 || w != walks[0] {
					t.Fatalf("parallelism %d ended the sweep after %d runs", w.par, runs)
				}
				for _, w := range walks[1:] {
					if _, more := <-w.out; more {
						t.Fatalf("parallelism %d ran past the sweep's %d runs", w.par, runs)
					}
				}
				if converges && walks[0].merged*walks[1].merged == 0 {
					t.Fatalf("no two runs of different drop histories share a node (%d, %d)", walks[0].merged, walks[1].merged)
				}
				return
			}
			if oc.Err != nil {
				t.Fatal(oc.Err)
			}
			if want == nil {
				var err error
				if want, err = engine.RunBuffered(stack.Config(oc.Scenario.Pattern, oc.Scenario.Inits), buf); err != nil {
					t.Fatal(err)
				}
			}
			w.check(t, runs, oc.Result, want)
		}
	}
}

// check compares run r of the walk with the plain engine's and records
// the rows it reached.
func (w *memoWalk) check(t *testing.T, r int, got, want *engine.Result) {
	t.Helper()
	if !slices.Equal(got.Inits, want.Inits) || !slices.EqualFunc(got.Actions, want.Actions, slices.Equal) ||
		!slices.Equal(got.Decision, want.Decision) || !slices.Equal(got.DecisionRound, want.DecisionRound) ||
		got.Stats != want.Stats {
		t.Fatalf("parallelism %d, run %d differs from the plain engine:\nmemo:  %splain: %s", w.par, r, ledgerFingerprint(got), ledgerFingerprint(want))
	}
	var h memoHistory
	for i, v := range got.Inits {
		h.inits |= uint32(v) << i
	}
	for m := range got.States {
		if h.m = m; m > 0 {
			h.drops[m-1] = dropMask(got.Pattern, m-1, got.N)
		}
		row := &got.States[m][0]
		if prev, seen := w.rowOf[h]; !seen {
			// The engine is deterministic, so later runs of this history
			// need only alias the row checked here.
			for i, s := range got.States[m] {
				if g, e := string(s.AppendKey(nil)), string(want.States[m][i].AppendKey(nil)); g != e {
					t.Fatalf("parallelism %d, run %d: agent %d's time-%d key is %q, the plain engine's %q", w.par, r, i, m, g, e)
				}
			}
			w.rowOf[h] = row
		} else if prev != row {
			t.Fatalf("parallelism %d, run %d: time %d's row is not the one an earlier run of the same history holds", w.par, r, m)
		}
		if first, seen := w.firstOf[row]; !seen {
			w.firstOf[row] = h
		} else if first != h {
			w.merged++
		}
	}
}
