package experiments

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/episteme"
	"repro/internal/registry"
	"repro/internal/spec"
)

// checkOpts translates the experiments' Parallelism knob into model
// checker options (0 = one worker per CPU; the numbers never change, only
// the wall-clock).
func checkOpts(parallelism int) []episteme.Option {
	return []episteme.Option{episteme.WithParallelism(parallelism)}
}

// programs resolves the registry's program names.
var programs = map[string]episteme.Program{"P0": episteme.P0, "P1": episteme.P1}

// must unwraps a model-checking result. The experiment grids use
// compile-time sizes and registered stacks, so an error is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return v
}

// dash renders an absent count (-1) as "-".
func dash(v int) any {
	if v < 0 {
		return "-"
	}
	return v
}

// E6TheoremMatrix machine-checks the paper's theorem-level claims over
// every failure pattern and initial assignment of each context, crossed
// with every stack. Each cell builds one interpreted system and reads
// every column from it:
//   - implements: Theorems 6.5 and 6.6 (P0 in γ_min, γ_basic) and
//     Theorem A.21 / Prop 7.9 (P1 in γ_fip), against the knowledge-based
//     program the registry names for the stack ("-" for fip+pmin, which
//     implements neither);
//   - synth: the disagreements between the cell's system and the protocol
//     synthesized from that program over the cell's exchange (the
//     epistemic synthesis of Section 8, one per exchange and program in a
//     context: fip's P1 and fip-nock's P0 over Efip are two); the system
//     implements the program exactly when synthesis re-derives its
//     protocol, so synth is 0 iff implements is, in every cell;
//   - safety: Prop 6.4, Definition 6.2 — P0 is safe wrt γ_min and
//     γ_basic, and not wrt full information;
//   - Thm 7.5: the optimality characterization over Efip (Cor 7.8): Popt
//     satisfies it, Pmin run over Efip (correct but dominated) does not;
//   - spec: Prop 6.1, the EBA specification with strong Validity and
//     every decision by round t+2; the naive stack, the introduction's
//     eager 0-biased rule, breaks it under SO with n−t ≥ 2 (run r′) and
//     keeps it under crash failures;
//   - the largest nonfaulty decision round per number f of agents that
//     actually omit, and the runs over min(f+2, t+2) (E20's early-stopping
//     columns): Pbasic, Popt and Popt-nock never exceed it, since every
//     agent sends in every round and a missing message exposes its
//     sender; Pmin's runs past it are pinned, since its rule reads only
//     an initial or announced 0 and the clock, over Emin or Efip alike;
//   - the dominance column (Cor 7.8, §8): the (run, agent) pairs where the
//     stack decides later than Popt in the same context, with the largest
//     gap, and the relation to Popt, from spec.CompareRuns run by run;
//     Popt's row is built first and keeps one byte per (run, agent).
//
// The theorems assume sending omissions with n−t ≥ 2, so the n−t = 1 and
// crash cells are reported, not gated on the knowledge columns.
func E6TheoremMatrix(parallelism int) *Table {
	t := &Table{
		ID:    "E6",
		Title: "theorem matrix: one exhaustive system per (context, stack), every check read from it",
		Claim: "Thms 6.5, 6.6, A.21 (implements); §8 (synth); Prop 6.4 (safety); Thm 7.5 / Cor 7.8; Prop 6.1 (spec, decided by t+2); §1 (no eager 0-bias under omissions); early stopping by min(f+2, t+2)",
		Columns: []string{"context", "stack", "runs", "implements", "synth", "safety", "Thm 7.5", "spec",
			"max round f=0", "f=1", "f=2", "runs over min(f+2,t+2)", "later than Popt (gap)", "vs Popt"},
		Pass: true,
	}
	ctx := context.Background()
	for _, c := range []struct {
		kind    string
		n, t    int
		minOver int // Pmin's pinned runs past min(f+2, t+2); -1 where they are reported only
	}{{"SO", 2, 1, -1}, {"SO", 3, 1, 4}, {"SO", 4, 1, 5}, {"crash", 3, 1, -1}, {"crash", 3, 2, 124}, {"crash", 4, 2, 475}} {
		crash := c.kind == "crash"
		synths := make(map[string]*episteme.Synthesized) // by exchange and program
		names := []string{"min", "basic", "fip", "fip-nock", "fip+pmin", "naive"}
		rows := make([][]any, len(names))
		var popt []uint8                            // Popt's decision round per (run, agent)
		for _, k := range []int{2, 0, 1, 3, 4, 5} { // Popt first: every other row is read against it
			name := names[k]
			st := stackFor(name, c.n, c.t)
			info := must(registry.Stack(name))
			mc := episteme.ContextFor(st)
			mc.Crash = crash
			sys := must(episteme.BuildSystem(ctx, mc, st.Action, checkOpts(parallelism)...))

			implements, synthesized, optimality := -1, -1, -1
			if prog, ok := programs[info.Program]; ok {
				implements = len(must(sys.CheckImplements(ctx, prog, 0)))
				key := info.Exchange + "/" + info.Program
				if synths[key] == nil {
					synths[key] = must(episteme.Synthesize(ctx, mc, prog, checkOpts(parallelism)...))
				}
				synthesized = len(must(synths[key].Diff(ctx, sys, 0)))
			}
			safety := len(must(sys.CheckSafety(ctx, 0)))
			if info.Exchange == "fip" {
				optimality = len(must(sys.CheckOptimalityFIP(ctx, -1, 0)))
			}
			es, dom := earlyStop{t: c.t}, dominance{popt: popt}
			var res engine.Result
			for g := range sys.Runs {
				sys.Ledger(g, &res) // read through the system's labelling
				es.add(&res)
				if name == "fip" {
					for _, r := range res.DecisionRound {
						popt = append(popt, uint8(r))
					}
				} else {
					dom.add(g, &res)
				}
			}

			// Naive's spec is gated below, where it must fail.
			pass := es.latest <= c.t+2 && (es.violations == 0 || name == "naive" && !crash) &&
				(synthesized == 0) == (implements == 0)
			switch name {
			case "min":
				pass = pass && (c.minOver < 0 || es.over == c.minOver)
			case "basic", "fip", "fip-nock":
				pass = pass && es.over == 0
			}
			if !crash && c.n-c.t >= 2 {
				pass = pass && implements <= 0 // -1: fip+pmin has no program
				switch name {
				case "min", "basic":
					pass = pass && safety == 0
				case "fip":
					pass = pass && safety > 0 && optimality == 0
				case "fip+pmin":
					pass = pass && optimality > 0 && optimality == dom.later
				case "naive":
					pass = pass && es.violations > 0
				}
			}
			if !crash && c.n-c.t >= 2 && dom.earlier && dom.later == 0 {
				pass = false // Cor 7.8: nothing strictly dominates Popt
			}
			if !pass {
				t.Pass = false
			}
			row := []any{fmt.Sprintf("%s n%d t%d", c.kind, c.n, c.t), name, len(sys.Runs),
				dash(implements), dash(synthesized), safety, dash(optimality), es.violations}
			rows[k] = append(append(append(row, es.roundCells()...), es.over), dom.cells(name == "fip")...)
		}
		for _, row := range rows {
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		"gated in SO with n−t ≥ 2: implements 0; safety 0 for min and basic, >0 for fip; Thm 7.5 0 for fip, >0 for fip+pmin; spec >0 for naive",
		"gated everywhere: synth 0 iff implements 0; spec 0 (Validity in the strong form, per Prop 6.1), but for naive under SO; no decision after t+2; runs over 0 for basic, fip and fip-nock, and min's pinned in SO n3,n4 t1 and crash n3,n4 t2",
		"⊡-reachability is computed on the horizon-(t+2) system; all decisions fall within it",
		"later than Popt: nonfaulty (run, agent) pairs deciding after Popt in the same scenario (largest gap in rounds); gated in SO with n−t ≥ 2: no row strictly dominates Popt (Cor 7.8), and fip+pmin's Thm 7.5 count equals its later pairs")
	return t
}

// dominance folds a row's runs against Popt's in the same context, run by
// run (the systems enumerate one source, so run g is one scenario in
// both): the nonfaulty (run, agent) pairs where the row decides later
// than Popt, the largest gap in rounds, and whether it ever decides
// earlier.
type dominance struct {
	popt       []uint8 // Popt's decision round per (run, agent)
	ref        engine.Result
	later, gap int
	earlier    bool
}

func (d *dominance) add(g int, res *engine.Result) {
	d.ref = engine.Result{N: res.N, Pattern: res.Pattern, Inits: res.Inits, DecisionRound: d.ref.DecisionRound[:0]}
	for _, r := range d.popt[g*res.N : (g+1)*res.N] {
		d.ref.DecisionRound = append(d.ref.DecisionRound, int(r))
	}
	rel := must(spec.CompareRuns([]*engine.Result{&d.ref}, []*engine.Result{res}))
	d.later += rel.StrictCount
	d.earlier = d.earlier || !rel.Dominates
	for _, i := range res.Pattern.NonfaultySet() {
		d.gap = max(d.gap, res.Round(i)-d.ref.Round(i))
	}
}

// cells renders the later pairs with the largest gap, and the relation to
// Popt; "-" on Popt's own row.
func (d *dominance) cells(self bool) []any {
	if self {
		return []any{"-", "-"}
	}
	later, rel := fmt.Sprint(d.later), "equal"
	if d.later > 0 {
		later = fmt.Sprintf("%d (%d)", d.later, d.gap)
	}
	switch {
	case d.later > 0 && d.earlier:
		rel = "incomparable"
	case d.later > 0:
		rel = "dominated"
	case d.earlier:
		rel = "dominates"
	}
	return []any{later, rel}
}
