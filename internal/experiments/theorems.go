package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/episteme"
	"repro/internal/registry"
)

// checkOpts translates the experiments' Parallelism knob into model
// checker options (0 = one worker per CPU; the numbers never change, only
// the wall-clock).
func checkOpts(parallelism int) []episteme.Option {
	return []episteme.Option{episteme.WithParallelism(parallelism)}
}

// buildStackSystem builds the interpreted system of a stack's EBA context
// over the model checker's worker pool.
func buildStackSystem(st core.Stack, parallelism int) (*episteme.System, error) {
	return episteme.BuildSystem(context.Background(), episteme.ContextFor(st), st.Action, checkOpts(parallelism)...)
}

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
//   - safety: Prop 6.4, Definition 6.2 — P0 is safe wrt γ_min and
//     γ_basic, and not wrt full information;
//   - Thm 7.5: the optimality characterization over Efip (Cor 7.8): Popt
//     satisfies it, Pmin run over Efip (correct but dominated) does not;
//   - spec: Prop 6.1, the EBA specification with strong Validity and
//     every decision by round t+2;
//   - the largest nonfaulty decision round per number f of agents that
//     actually omit, and the runs over min(f+2, t+2) (E20's early-stopping
//     columns): Pbasic, Popt and Popt-nock never exceed it, since every
//     agent sends in every round and a missing message exposes its
//     sender; Pmin's runs past it are pinned, since its rule reads only
//     an initial or announced 0 and the clock, over Emin or Efip alike.
//
// The theorems assume sending omissions with n−t ≥ 2, so the n−t = 1 and
// crash cells are reported, not gated on the knowledge columns.
func E6TheoremMatrix(parallelism int) *Table {
	t := &Table{
		ID:    "E6",
		Title: "theorem matrix: one exhaustive system per (context, stack), every check read from it",
		Claim: "Thms 6.5, 6.6, A.21 (implements); Prop 6.4 (safety); Thm 7.5 / Cor 7.8; Prop 6.1 (spec, decided by t+2); early stopping by min(f+2, t+2)",
		Columns: []string{"context", "stack", "runs", "implements", "safety", "Thm 7.5", "spec",
			"max round f=0", "f=1", "f=2", "runs over min(f+2,t+2)"},
		Pass: true,
	}
	ctx := context.Background()
	for _, c := range []struct {
		kind    string
		n, t    int
		minOver int // Pmin's pinned runs past min(f+2, t+2); -1 where they are reported only
	}{{"SO", 2, 1, -1}, {"SO", 3, 1, 4}, {"SO", 4, 1, 5}, {"crash", 3, 1, -1}, {"crash", 3, 2, 124}, {"crash", 4, 2, 475}} {
		crash := c.kind == "crash"
		for _, name := range []string{"min", "basic", "fip", "fip-nock", "fip+pmin"} {
			st := stackFor(name, c.n, c.t)
			info := must(registry.Stack(name))
			mc := episteme.ContextFor(st)
			mc.Crash = crash
			sys := must(episteme.BuildSystem(ctx, mc, st.Action, checkOpts(parallelism)...))

			implements, optimality := -1, -1
			switch info.Program {
			case "P0":
				implements = len(must(sys.CheckImplements(ctx, episteme.P0, 0)))
			case "P1":
				implements = len(must(sys.CheckImplements(ctx, episteme.P1, 0)))
			}
			safety := len(must(sys.CheckSafety(ctx, 0)))
			if info.Exchange == "fip" {
				optimality = len(must(sys.CheckOptimalityFIP(ctx, -1, 0)))
			}
			es := earlyStop{t: c.t}
			for _, res := range sys.Runs {
				es.add(res)
			}

			pass := es.ok()
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
					pass = pass && optimality > 0
				}
			}
			if !pass {
				t.Pass = false
			}
			row := []any{fmt.Sprintf("%s n%d t%d", c.kind, c.n, c.t), name, len(sys.Runs),
				dash(implements), safety, dash(optimality), es.violations}
			t.AddRow(append(append(row, es.roundCells()...), es.over)...)
		}
	}
	t.Notes = append(t.Notes,
		"gated in SO with n−t ≥ 2: implements 0; safety 0 for min and basic, >0 for fip; Thm 7.5 0 for fip, >0 for fip+pmin",
		"gated everywhere: spec 0 (Validity in the strong form, per Prop 6.1); no decision after t+2; runs over 0 for basic, fip and fip-nock, and min's pinned in SO n3,n4 t1 and crash n3,n4 t2",
		"⊡-reachability is computed on the horizon-(t+2) system; all decisions fall within it")
	return t
}

// E14Synthesis exercises the epistemic-synthesis direction of Section 8:
// extracting concrete protocols from P0 and P1 and comparing them with the
// hand-written implementations, state by reachable state. At n−t = 1 the
// paper's P0 protocols are a round late, and synthesis says so.
func E14Synthesis(parallelism int) *Table {
	t := &Table{
		ID:      "E14",
		Title:   "epistemic synthesis of concrete protocols from P0 and P1",
		Claim:   "§8 outlook: concrete implementations are derivable from the knowledge-based program",
		Columns: []string{"context", "program", "table states", "reference", "disagreements", "expected"},
		Pass:    true,
	}
	ctx := context.Background()
	for _, c := range []struct {
		label  string
		st     core.Stack
		prog   episteme.Program
		expect int
	}{
		{"γ_min(2,1)", stackFor("min", 2, 1), episteme.P0, 2},
		{"γ_basic(2,1)", stackFor("basic", 2, 1), episteme.P0, 2},
		{"γ_fip(2,1)", stackFor("fip", 2, 1), episteme.P1, 0},
		{"γ_min(3,1)", stackFor("min", 3, 1), episteme.P0, 0},
		{"γ_basic(3,1)", stackFor("basic", 3, 1), episteme.P0, 0},
		{"γ_fip(3,1)", stackFor("fip", 3, 1), episteme.P1, 0},
	} {
		synth, _, err := episteme.Synthesize(ctx, episteme.ContextFor(c.st), c.prog, checkOpts(parallelism)...)
		if err != nil {
			panic(err)
		}
		ms := must(synth.Diff(ctx, must(buildStackSystem(c.st, parallelism)), 0))
		if len(ms) != c.expect {
			t.Pass = false
		}
		t.AddRow(c.label, c.prog, synth.Size(), c.st.Action.Name(), len(ms), c.expect)
	}
	t.Notes = append(t.Notes,
		"n−t = 1: P0 decides 1 at time t where Pmin and Pbasic wait until t+1 (both disagreements are at time 1)")
	return t
}
