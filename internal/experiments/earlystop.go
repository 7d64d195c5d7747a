package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/source"
	"repro/internal/spec"
)

// omitters counts the agents that omit at least one message in p: the
// faults that actually occur, where NumFaulty counts the ones allowed.
func omitters(p *model.Pattern) int {
	f := 0
	for i := 0; i < p.N(); i++ {
	sender:
		for m := 0; m < p.Horizon(); m++ {
			for j := 0; j < p.N(); j++ {
				if !p.Delivered(m, model.AgentID(i), model.AgentID(j)) {
					f++
					break sender
				}
			}
		}
	}
	return f
}

// earlyStop folds runs into the decision-round columns E6 and E20 share:
// the largest nonfaulty decision round per number f of agents that
// actually omit, the runs in which a nonfaulty agent decides after
// min(f+2, t+2), the latest decision of any agent, and the violations of
// the EBA specification (strong Validity, every decision by t+2).
type earlyStop struct {
	t                        int
	byF                      [3]int // 0 when no run has that f
	over, latest, violations int
}

func (e *earlyStop) add(res *engine.Result) {
	f, late := omitters(res.Pattern), false
	for _, i := range res.Pattern.NonfaultySet() {
		e.byF[f] = max(e.byF[f], res.Round(i))
		late = late || res.Round(i) > min(f+2, e.t+2)
	}
	if late {
		e.over++
	}
	e.latest = max(e.latest, slices.Max(res.DecisionRound))
	e.violations += len(spec.CheckRun(res, spec.Options{RoundBound: e.t + 2, ValidityAllAgents: true}))
}

// ok reports the gates every E20 row shares, and every E6 row but naive's
// under SO: the specification holds and no agent decides after round t+2.
func (e *earlyStop) ok() bool { return e.violations == 0 && e.latest <= e.t+2 }

// roundCells renders the per-f decision rounds, "-" where no run has that f.
func (e *earlyStop) roundCells() []any {
	cells := make([]any, len(e.byF))
	for f, r := range e.byF {
		cells[f] = r
		if r == 0 {
			cells[f] = "-"
		}
	}
	return cells
}

// E20EarlyStopping compares each nonfaulty agent's decision round with
// min(f+2, t+2) over random SO(2) runs at n=6, beyond the exhaustive
// contexts of E6, which pins the same columns there. Every row is gated on
// the t+2 bound for every agent and on the full specification; the runs
// past min(f+2, t+2) are reported, not gated.
func E20EarlyStopping(seed int64, trials, parallelism int) *Table {
	t := &Table{
		ID:      "E20",
		Title:   "decision round against the number f of agents that actually omit",
		Claim:   "Abraham–Dolev: early stopping decides by round min(f+2, t+1); Prop 6.1: every implementation decides within t+2 rounds",
		Columns: []string{"context", "stack", "runs", "max round f=0", "f=1", "f=2", "runs over min(f+2,t+2)", "violations"},
		Pass:    true,
	}
	rng := rand.New(rand.NewSource(seed))
	n, tf := 6, 2
	for _, name := range []string{"min", "basic", "fip", "fip-nock"} {
		st := stackFor(name, n, tf)
		es, runs := earlyStop{t: tf}, 0
		mustStream(st, source.RandomScenarios(rng, n, tf, tf+2, 0.45, int64(trials)), parallelism, func(res *engine.Result) {
			runs++
			es.add(res)
		})
		if !es.ok() {
			t.Pass = false
		}
		row := append([]any{fmt.Sprintf("random SO n%d t%d", n, tf), st.Name, runs}, es.roundCells()...)
		t.AddRow(append(row, es.over, es.violations)...)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("random SO: drop probability 0.45, %d trials per stack, seed %d", trials, seed))
	return t
}
