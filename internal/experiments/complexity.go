package experiments

import (
	"context"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/source"
)

// mustRun executes a stack on one scenario through the Runner, panicking
// on configuration errors (which are bugs in the experiment definitions,
// not data).
func mustRun(st core.Stack, pat *model.Pattern, inits []model.Value) *engine.Result {
	res, err := core.NewRunner(st).Run(context.Background(), core.Scenario{Pattern: pat, Inits: inits})
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", st.Name, err))
	}
	return res
}

// mustRunBatch executes a stack on a scenario list through the batch
// Runner — parallel across `parallelism` workers (0 = one per CPU), with
// per-worker buffer reuse, order-preserving so results correspond to
// scenarios index by index.
func mustRunBatch(st core.Stack, scenarios []core.Scenario, parallelism int) []*engine.Result {
	results, err := core.NewRunner(st, core.WithParallelism(parallelism)).RunBatch(context.Background(), scenarios)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", st.Name, err))
	}
	return results
}

// mustStream pulls scenarios lazily from the source through the streaming
// Runner and hands each result to fn in scenario order, so sweeps
// aggregate at O(window) memory instead of materializing a scenario slice
// and a result slice. Any execution error is a bug in the experiment
// definition.
func mustStream(st core.Stack, src core.Source, parallelism int, fn func(*engine.Result)) {
	runner := core.NewRunner(st, core.WithParallelism(parallelism))
	for oc := range runner.StreamFrom(context.Background(), src) {
		if oc.Err != nil {
			panic(fmt.Sprintf("experiments: %s: scenario %d: %v", st.Name, oc.Index, oc.Err))
		}
		fn(oc.Result)
	}
}

// mustCollect drains a bounded source into a scenario slice, for sweeps
// that must replay identical scenarios against several stacks (the
// run-by-run correspondence the dominance order needs).
func mustCollect(src core.Source) []core.Scenario {
	scenarios, err := source.Collect(src)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return scenarios
}

// fipExactBits is the closed-form bit count of a t+2-round run of the
// full-information exchange with the dense graph encoding: at time m each
// of the n agents sends n messages of 2n²m + 2n bits.
func fipExactBits(n, t int) int64 {
	total := int64(0)
	for m := 0; m <= t+1; m++ {
		total += int64(n) * int64(n) * int64(2*n*n*m+2*n)
	}
	return total
}

// E1MessageComplexity reproduces Proposition 8.1: bits sent per run are
// exactly n² for P_min, O(n²t) for P_basic, and Θ(n⁴t²) for the
// full-information protocol. Both the failure-free all-1 run and the
// silent-faulty (Example 7.1 style) worst case are measured.
func E1MessageComplexity() *Table {
	t := &Table{
		ID:      "E1",
		Title:   "message complexity per run (bits sent)",
		Claim:   "Prop 8.1: Pmin = n² bits; Pbasic = O(n²t) bits; full information = O(n⁴t²) bits",
		Columns: []string{"workload", "n", "t", "Pmin", "Pbasic", "Pfip", "n²", "2n²(t+2)", "n⁴(t+1)(t+2)+2n³(t+2)"},
		Pass:    true,
	}
	type cfg struct{ n, tf int }
	cases := []cfg{{4, 1}, {8, 2}, {12, 3}, {16, 4}, {16, 7}}
	for _, c := range cases {
		for _, workload := range []string{"failure-free", "silent-faulty"} {
			var pat *model.Pattern
			if workload == "failure-free" {
				pat = adversary.FailureFree(c.n, c.tf+2)
			} else {
				pat = adversary.Example71(c.n, c.tf, c.tf+2)
			}
			inits := adversary.UniformInits(c.n, model.One)
			minBits := mustRun(stackFor("min", c.n, c.tf), pat, inits).Stats.BitsSent
			basicBits := mustRun(stackFor("basic", c.n, c.tf), pat, inits).Stats.BitsSent
			fipBits := mustRun(stackFor("fip", c.n, c.tf), pat, inits).Stats.BitsSent

			exactMin := int64(c.n * c.n)
			boundBasic := int64(2 * c.n * c.n * (c.tf + 2))
			exactFip := fipExactBits(c.n, c.tf)
			if minBits != exactMin || basicBits > boundBasic || fipBits != exactFip {
				t.Pass = false
			}
			t.AddRow(workload, c.n, c.tf, minBits, basicBits, fipBits, exactMin, boundBasic, exactFip)
		}
	}
	t.Notes = append(t.Notes,
		"encodings: 1 bit per Emin message, 2 bits per Ebasic message, 2 bits per graph label",
		"Pmin is exact; Pbasic is checked against its 2n²(t+2) ceiling; Pfip matches its closed form exactly")
	return t
}

// E2FailureFreeZero reproduces Proposition 8.2(a): in failure-free runs
// with at least one initial 0, every agent decides 0 by round 2 under all
// three protocols.
func E2FailureFreeZero() *Table {
	t := &Table{
		ID:      "E2",
		Title:   "failure-free runs with an initial 0",
		Claim:   "Prop 8.2(a): all agents decide by round 2 with Pmin, Pbasic, and Pfip",
		Columns: []string{"stack", "n", "t", "vectors", "max round", "all decide 0"},
		Pass:    true,
	}
	n, tf := 5, 2
	stacks := []core.Stack{stackFor("min", n, tf), stackFor("basic", n, tf), stackFor("fip", n, tf)}
	for _, st := range stacks {
		maxRound, vectors, allZero := 0, 0, true
		forEachInits(n, func(inits []model.Value) bool {
			hasZero := false
			for _, v := range inits {
				if v == model.Zero {
					hasZero = true
				}
			}
			if !hasZero {
				return true
			}
			vectors++
			res := mustRun(st, adversary.FailureFree(n, tf+2), append([]model.Value(nil), inits...))
			for i := 0; i < n; i++ {
				if r := res.Round(model.AgentID(i)); r > maxRound {
					maxRound = r
				}
				if res.Decided(model.AgentID(i)) != model.Zero {
					allZero = false
				}
			}
			return true
		})
		if maxRound > 2 || !allZero {
			t.Pass = false
		}
		t.AddRow(st.Name, n, tf, vectors, maxRound, allZero)
	}
	return t
}

// E3FailureFreeOnes reproduces Proposition 8.2(b): in failure-free all-1
// runs, P_min decides in round t+2 while P_basic and the full-information
// protocol decide in round 2.
func E3FailureFreeOnes() *Table {
	t := &Table{
		ID:      "E3",
		Title:   "failure-free all-1 runs",
		Claim:   "Prop 8.2(b): Pmin decides in round t+2; Pbasic and Pfip in round 2",
		Columns: []string{"n", "t", "Pmin round", "Pbasic round", "Pfip round", "want Pmin", "want others"},
		Pass:    true,
	}
	for _, c := range []struct{ n, tf int }{{4, 1}, {5, 2}, {6, 3}, {8, 4}} {
		inits := adversary.UniformInits(c.n, model.One)
		pat := adversary.FailureFree(c.n, c.tf+2)
		rMin := mustRun(stackFor("min", c.n, c.tf), pat, inits).MaxDecisionRound(false)
		rBasic := mustRun(stackFor("basic", c.n, c.tf), pat, inits).MaxDecisionRound(false)
		rFip := mustRun(stackFor("fip", c.n, c.tf), pat, inits).MaxDecisionRound(false)
		if rMin != c.tf+2 || rBasic != 2 || rFip != 2 {
			t.Pass = false
		}
		t.AddRow(c.n, c.tf, rMin, rBasic, rFip, c.tf+2, 2)
	}
	return t
}

// E4Example71 reproduces Example 7.1 at the paper's exact parameters:
// n=20, t=10, the ten faulty agents silent, every initial preference 1.
// The full-information protocol decides in round 3; the limited-exchange
// protocols wait until round 12.
func E4Example71() *Table {
	t := &Table{
		ID:      "E4",
		Title:   "Example 7.1 (n=20, t=10, silent faulty agents, all-1)",
		Claim:   "Popt decides in round 3; Pmin and Pbasic in round 12",
		Columns: []string{"stack", "nonfaulty max round", "want"},
		Pass:    true,
	}
	n, tf := 20, 10
	pat := adversary.Example71(n, tf, tf+2)
	inits := adversary.UniformInits(n, model.One)
	for _, c := range []struct {
		st   core.Stack
		want int
	}{
		{stackFor("fip", n, tf), 3},
		{stackFor("min", n, tf), 12},
		{stackFor("basic", n, tf), 12},
	} {
		got := mustRun(c.st, pat, inits).MaxDecisionRound(true)
		if got != c.want {
			t.Pass = false
		}
		t.AddRow(c.st.Name, got, c.want)
	}
	t.Notes = append(t.Notes,
		"common knowledge of the faulty set forms after 2 rounds; Popt converts it into a round-3 decision")
	return t
}
