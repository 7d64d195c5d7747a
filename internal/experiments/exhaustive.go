package experiments

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/spec"
)

// E17ExhaustiveSpec verifies the full EBA specification — Unique
// Decision, Agreement, Validity (strong form), Termination by t+2 — for
// every protocol stack over EVERY failure pattern of the model and EVERY
// initial assignment, at exhaustively checkable sizes. This is the
// brute-force counterpart of Proposition 6.1 and complements the
// knowledge-level checks of E6–E10. The sweeps stream through the Runner
// from lazy sources, so the scenario space is never materialized.
func E17ExhaustiveSpec() *Table {
	t := &Table{
		ID:      "E17",
		Title:   "exhaustive EBA specification check (every pattern × every initial vector)",
		Claim:   "Prop 6.1: Pmin, Pbasic, Popt (and the E15 ablation) are EBA protocols; all decide by t+2",
		Columns: []string{"stack", "model", "n", "t", "runs", "violations"},
		Pass:    true,
	}
	type cfg struct {
		st    core.Stack
		crash bool
	}
	cases := []cfg{
		{stackFor("min", 3, 1), false},
		{stackFor("basic", 3, 1), false},
		{stackFor("fip", 3, 1), false},
		{stackFor("fip-nock", 3, 1), false},
		{stackFor("min", 4, 1), false},
		{stackFor("basic", 4, 1), false},
		{stackFor("min", 3, 1), true},
		{stackFor("fip", 3, 1), true},
	}
	for _, c := range cases {
		kind := "SO"
		if c.crash {
			kind = "crash"
		}
		runs, violations := 0, 0
		mustStream(c.st, exhaustiveSource(c.st, c.crash), 0, func(res *engine.Result) {
			runs++
			violations += len(spec.CheckRun(res, spec.Options{
				RoundBound:        c.st.Horizon(),
				ValidityAllAgents: true,
			}))
		})
		if violations != 0 {
			t.Pass = false
		}
		t.AddRow(c.st.Name, kind, c.st.N, c.st.T, runs, violations)
	}
	t.Notes = append(t.Notes,
		"Validity is checked in the strong form (even faulty deciders), per Proposition 6.1")
	return t
}
