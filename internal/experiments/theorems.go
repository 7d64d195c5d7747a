package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

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
		ID:      "E6",
		Title:   "theorem matrix: one exhaustive system per (context, stack), every check read from it",
		Claim:   matrixClaim,
		Columns: matrixColumns,
		Pass:    true,
	}
	for _, c := range []matrixContext{{"SO", 2, 1, -1}, {"SO", 3, 1, 4}, {"SO", 4, 1, 5}, {"crash", 3, 1, -1}, {"crash", 3, 2, 124}, {"crash", 4, 2, 475}} {
		matrixRows(t, c, parallelism, false)
	}
	t.Notes = append(t.Notes,
		"gated in SO with n−t ≥ 2: implements 0; safety 0 for min and basic, >0 for fip; Thm 7.5 0 for fip, >0 for fip+pmin; spec >0 for naive",
		"gated everywhere: synth 0 iff implements 0; spec 0 (Validity in the strong form, per Prop 6.1), but for naive under SO; no decision after t+2; runs over 0 for basic, fip and fip-nock, and min's pinned in SO n3,n4 t1 and crash n3,n4 t2",
		"⊡-reachability is computed on the horizon-(t+2) system; all decisions fall within it",
		"later than Popt: nonfaulty (run, agent) pairs deciding after Popt in the same scenario (largest gap in rounds); gated in SO with n−t ≥ 2: no row strictly dominates Popt (Cor 7.8), and fip+pmin's Thm 7.5 count equals its later pairs")
	return t
}

// E6LargerCells is the theorem matrix's larger rows: SO n=5,t=1, SO
// n=3,t=2 and crash n=5,t=2 crossed with every stack, with E6's columns
// and gates and one more, the one-class flips that keep the spec and
// decide earlier (System.OneClassFlips, over Efip: Theorem 7.5's ⇐
// direction without knowledge). Every row must also read as pinned in
// largerCells. Its 18 systems take about a minute and under 2 GB, so
// cmd/ebabench prints it after Generators' tables and go test never
// builds it.
func E6LargerCells(parallelism int) *Table {
	t := &Table{
		ID:      "E6L",
		Title:   "theorem matrix, larger rows: SO n5 t1, SO n3 t2, crash n5 t2, each row pinned",
		Claim:   matrixClaim + "; Thm 7.5 ⇐ without knowledge (flips)",
		Columns: append(slices.Clone(matrixColumns), "flips"),
		Pass:    true,
	}
	for _, c := range []matrixContext{{"SO", 5, 1, -1}, {"SO", 3, 2, -1}, {"crash", 5, 2, -1}} {
		matrixRows(t, c, parallelism, true)
	}
	for _, row := range t.Rows {
		if cell, got := row[0]+"/"+row[1], strings.Join(row[2:], " "); got != largerCells[cell] {
			t.Pass = false
			t.Notes = append(t.Notes, fmt.Sprintf("%s reads %q, pinned %q", cell, got, largerCells[cell]))
		}
	}
	t.Notes = append(t.Notes,
		"E6's gates, where SO n5 t1 is the only context with n−t ≥ 2; every row pinned as it reads",
		"flips: pre-horizon classes one can relabel \"decide v\" alone, keeping the spec and deciding earlier; none for Popt in SO n5 t1, where n−t ≥ 2")
	return t
}

// largerCells pins E6LargerCells' rows, cells from runs on, as
// TestTheoremMatrix pins E6's. Implements, safety and Thm 7.5 are
// ROADMAP's larger-cells readings; SO n=3,t=2's n−t = 1 and the crash
// contexts are reported, not gated.
var largerCells = map[string]string{
	"SO n5 t1/min":         "655392 0 0 0 - 0 3 3 - 6 40965 (1) dominated -",
	"SO n5 t1/basic":       "655392 0 0 0 - 0 2 3 - 0 0 equal -",
	"SO n5 t1/fip":         "655392 0 0 7520 0 0 2 3 - 0 - - 0",
	"SO n5 t1/fip-nock":    "655392 0 0 7520 0 0 2 3 - 0 0 equal 0",
	"SO n5 t1/fip+pmin":    "655392 - - 7520 40965 0 3 3 - 6 40965 (1) dominated 5",
	"SO n5 t1/naive":       "655392 - - 10080 43525 1920 3 3 - 6 40965 (1) dominated 5",
	"SO n3 t2/min":         "1579016 3 3 0 - 0 4 4 4 2878 395139 (2) dominated -",
	"SO n3 t2/basic":       "1579016 3 3 196608 - 0 2 3 4 0 184320 (1) dominated -",
	"SO n3 t2/fip":         "1579016 81 606 975492 196608 0 2 3 3 0 - - 3",
	"SO n3 t2/fip-nock":    "1579016 0 0 926340 196608 0 2 3 3 0 0 equal 3",
	"SO n3 t2/fip+pmin":    "1579016 - - 926340 752454 0 4 4 4 2878 395139 (2) dominated 240",
	"SO n3 t2/naive":       "1579016 - - 689268 531318 24 4 4 4 2638 284355 (2) dominated 108",
	"crash n5 t2/min":      "1200512 0 0 0 - 0 4 4 4 1541 115875 (2) dominated -",
	"crash n5 t2/basic":    "1200512 0 0 0 - 0 2 3 4 0 4800 (1) dominated -",
	"crash n5 t2/fip":      "1200512 0 0 0 0 0 2 3 4 0 - - 0",
	"crash n5 t2/fip-nock": "1200512 390 780 0 3360 0 2 3 4 0 3360 (1) dominated 390",
	"crash n5 t2/fip+pmin": "1200512 - - 0 201210 0 4 4 4 1541 115875 (2) dominated 2190",
	"crash n5 t2/naive":    "1200512 - - 0 201210 0 4 4 4 1541 115875 (2) dominated 2190",
}

// matrixClaim and matrixColumns are the theorem matrix's, both sizes.
var (
	matrixClaim   = "Thms 6.5, 6.6, A.21 (implements); §8 (synth); Prop 6.4 (safety); Thm 7.5 / Cor 7.8; Prop 6.1 (spec, decided by t+2); §1 (no eager 0-bias under omissions); early stopping by min(f+2, t+2)"
	matrixColumns = []string{"context", "stack", "runs", "implements", "synth", "safety", "Thm 7.5", "spec",
		"max round f=0", "f=1", "f=2", "runs over min(f+2,t+2)", "later than Popt (gap)", "vs Popt"}
)

// matrixContext is one context of the theorem matrix, with Pmin's pinned
// runs past min(f+2, t+2) (-1 where they are reported only).
type matrixContext struct {
	kind    string
	n, t    int
	minOver int
}

// matrixRows builds context c's system for every stack, Popt's first,
// and adds a row per stack to t in the registry's order, clearing t.Pass
// where a gate fails. With flips, a row ends in its one-class flips ("-"
// off Efip).
func matrixRows(t *Table, c matrixContext, parallelism int, flips bool) {
	ctx := context.Background()
	crash := c.kind == "crash"
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

		implements, synthesized, optimality, flipped := -1, -1, -1, -1
		if prog, ok := programs[info.Program]; ok {
			implements = len(must(sys.CheckImplements(ctx, prog, 0)))
			synth := must(episteme.Synthesize(ctx, mc, prog, checkOpts(parallelism)...))
			synthesized = len(must(synth.Diff(ctx, sys, 0)))
		}
		safety := len(must(sys.CheckSafety(ctx, 0)))
		if info.Exchange == "fip" {
			optimality = len(must(sys.CheckOptimalityFIP(ctx, -1, 0)))
			if flips {
				flipped = must(sys.OneClassFlips())
			}
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
		if flips {
			rows[k] = append(rows[k], dash(flipped))
		}
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
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
