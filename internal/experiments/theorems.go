package experiments

import (
	"context"
	"fmt"

	"repro/internal/action"
	"repro/internal/core"
	"repro/internal/episteme"
	"repro/internal/exchange"
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

// implementsRow model-checks one implementation theorem and appends a row.
func implementsRow(t *Table, label string, st core.Stack, prog episteme.Program, parallelism int) {
	sys, err := buildStackSystem(st, parallelism)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", label, err))
	}
	ms, err := sys.CheckImplements(context.Background(), prog, 0)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", label, err))
	}
	if len(ms) != 0 {
		t.Pass = false
	}
	t.AddRow(label, len(sys.Runs), len(ms))
}

// E6ImplementsMin machine-checks Theorem 6.5: P_min implements the
// knowledge-based program P0 in γ_min, over every SO(t) failure pattern
// and every initial assignment.
func E6ImplementsMin(parallelism int) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "Pmin implements P0 in γ_min (exhaustive model check)",
		Claim:   "Theorem 6.5",
		Columns: []string{"context", "runs", "mismatches"},
		Pass:    true,
	}
	implementsRow(t, "γ_min(n=3,t=1)", stackFor("min", 3, 1), episteme.P0, parallelism)
	implementsRow(t, "γ_min(n=4,t=1)", stackFor("min", 4, 1), episteme.P0, parallelism)
	return t
}

// E7ImplementsBasic machine-checks Theorem 6.6: P_basic implements P0 in
// γ_basic.
func E7ImplementsBasic(parallelism int) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "Pbasic implements P0 in γ_basic (exhaustive model check)",
		Claim:   "Theorem 6.6",
		Columns: []string{"context", "runs", "mismatches"},
		Pass:    true,
	}
	implementsRow(t, "γ_basic(n=3,t=1)", stackFor("basic", 3, 1), episteme.P0, parallelism)
	implementsRow(t, "γ_basic(n=4,t=1)", stackFor("basic", 4, 1), episteme.P0, parallelism)
	return t
}

// E8ImplementsFIP machine-checks Theorem A.21 / Proposition 7.9: the
// polynomial-time P_opt implements the knowledge-based program P1 in the
// full-information context, with the common-knowledge guards evaluated
// semantically.
func E8ImplementsFIP(parallelism int) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "Popt implements P1 in γ_fip (exhaustive model check)",
		Claim:   "Theorem A.21 / Prop 7.9",
		Columns: []string{"context", "runs", "mismatches"},
		Pass:    true,
	}
	implementsRow(t, "γ_fip(n=3,t=1)", stackFor("fip", 3, 1), episteme.P1, parallelism)
	return t
}

// E9Optimality machine-checks Theorem 7.5's characterization of optimal
// full-information protocols: P_opt satisfies both equivalences; P_min
// run over the full-information exchange (correct but slower) does not.
func E9Optimality(parallelism int) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "Theorem 7.5 optimality characterization over γ_fip",
		Claim:   "Popt is optimal wrt full information (Cor 7.8); a dominated protocol must fail the characterization",
		Columns: []string{"protocol", "runs", "violations", "expected"},
		Pass:    true,
	}
	ctx := context.Background()
	sysOpt, err := buildStackSystem(stackFor("fip", 3, 1), parallelism)
	if err != nil {
		panic(err)
	}
	vsOpt, err := sysOpt.CheckOptimalityFIP(ctx, -1, 0)
	if err != nil {
		panic(err)
	}
	if len(vsOpt) != 0 {
		t.Pass = false
	}
	t.AddRow("Popt", len(sysOpt.Runs), len(vsOpt), 0)

	sysMin, err := episteme.BuildSystem(ctx,
		episteme.Context{Exchange: exchange.NewFIP(3), T: 1}, action.NewMin(1), checkOpts(parallelism)...)
	if err != nil {
		panic(err)
	}
	vsMin, err := sysMin.CheckOptimalityFIP(ctx, -1, 0)
	if err != nil {
		panic(err)
	}
	if len(vsMin) == 0 {
		t.Pass = false
	}
	t.AddRow("Pmin over Efip", len(sysMin.Runs), len(vsMin), ">0")
	t.Notes = append(t.Notes,
		"⊡-reachability is computed on the horizon-(t+2) system; all decisions fall within it")
	return t
}

// E10Safety machine-checks Proposition 6.4: the knowledge-based program
// P0 is safe (Definition 6.2) with respect to γ_min and γ_basic, and —
// per the Section 6 remark — NOT safe with respect to full information.
func E10Safety(parallelism int) *Table {
	t := &Table{
		ID:      "E10",
		Title:   "safety condition of Definition 6.2",
		Claim:   "Prop 6.4: P0 safe wrt γ_min and γ_basic (n−t ≥ 2); not safe wrt γ_fip",
		Columns: []string{"context", "violations", "expected"},
		Pass:    true,
	}
	for _, c := range []struct {
		label  string
		st     core.Stack
		expect string
	}{
		{"γ_min(3,1)", stackFor("min", 3, 1), "0"},
		{"γ_basic(3,1)", stackFor("basic", 3, 1), "0"},
		{"γ_fip(3,1)", stackFor("fip", 3, 1), ">0"},
	} {
		sys, err := buildStackSystem(c.st, parallelism)
		if err != nil {
			panic(err)
		}
		vs, err := sys.CheckSafety(context.Background(), 0)
		if err != nil {
			panic(err)
		}
		ok := (c.expect == "0") == (len(vs) == 0)
		if !ok {
			t.Pass = false
		}
		t.AddRow(c.label, len(vs), c.expect)
	}
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
		ref, err := buildStackSystem(c.st, parallelism)
		if err != nil {
			panic(err)
		}
		ms, err := synth.Diff(ctx, ref, 0)
		if err != nil {
			panic(err)
		}
		if len(ms) != c.expect {
			t.Pass = false
		}
		t.AddRow(c.label, c.prog, synth.Size(), c.st.Action.Name(), len(ms), c.expect)
	}
	t.Notes = append(t.Notes,
		"n−t = 1: P0 decides 1 at time t where Pmin and Pbasic wait until t+1 (both disagreements are at time 1)")
	return t
}
