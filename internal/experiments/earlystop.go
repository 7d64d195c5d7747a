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

// E20EarlyStopping compares each nonfaulty agent's decision round with
// min(f+2, t+2), where f is the number of agents that omit at least one
// message. Over the exhaustive contexts Pbasic, Popt and Popt-nock never
// exceed it: every agent sends in every round, so a missing message
// exposes its sender. Pmin can: Emin never reveals an omission, so no
// agent learns f, and its runs past the bound are pinned. Every row is
// gated on the t+2 bound for every agent and on the full specification;
// the random SO(2) rows at n=6 report their runs past min(f+2, t+2) but
// are not gated on them.
func E20EarlyStopping(seed int64, trials, parallelism int) *Table {
	t := &Table{
		ID:      "E20",
		Title:   "decision round against the number f of agents that actually omit",
		Claim:   "Abraham–Dolev: early stopping decides by round min(f+2, t+1); Prop 6.1: every implementation decides within t+2 rounds",
		Columns: []string{"context", "stack", "runs", "max round f=0", "f=1", "f=2", "runs over min(f+2,t+2)", "violations"},
		Pass:    true,
	}
	rng := rand.New(rand.NewSource(seed))
	for _, c := range []struct {
		kind    string
		n, t    int
		minOver int // Pmin's pinned runs past the bound; -1 marks the random rows, which pin none
	}{{"SO", 3, 1, 4}, {"SO", 4, 1, 5}, {"crash", 3, 2, 124}, {"crash", 4, 2, 475}, {"random SO", 6, 2, -1}} {
		for _, name := range []string{"min", "basic", "fip", "fip-nock"} {
			st := stackFor(name, c.n, c.t)
			src := source.RandomScenarios(rng, c.n, c.t, c.t+2, 0.45, int64(trials))
			if c.minOver >= 0 {
				src = exhaustiveSource(st, c.kind == "crash")
			}
			byF := make([]int, 3) // largest nonfaulty decision round per f; 0 when no run has that f
			runs, over, worst, violations := 0, 0, 0, 0
			mustStream(st, src, parallelism, func(res *engine.Result) {
				runs++
				f, late := omitters(res.Pattern), false
				for _, i := range res.Pattern.NonfaultySet() {
					byF[f] = max(byF[f], res.Round(i))
					late = late || res.Round(i) > min(f+2, c.t+2)
				}
				if late {
					over++
				}
				worst = max(worst, slices.Max(res.DecisionRound))
				violations += len(spec.CheckRun(res, spec.Options{RoundBound: c.t + 2, ValidityAllAgents: true}))
			})
			want := 0
			if name == "min" {
				want = c.minOver
			}
			if c.minOver >= 0 && over != want || worst > c.t+2 || violations > 0 {
				t.Pass = false
			}
			row := []any{fmt.Sprintf("%s n%d t%d", c.kind, c.n, c.t), st.Name, runs}
			for _, r := range byF {
				cell := any(r)
				if r == 0 {
					cell = "-"
				}
				row = append(row, cell)
			}
			t.AddRow(append(row, over, violations)...)
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("random SO: drop probability 0.45, %d trials per stack, seed %d", trials, seed))
	return t
}
