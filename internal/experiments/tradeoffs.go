package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/source"
	"repro/internal/spec"
)

// E11BasicVsMin reproduces the Section 8 remark that, over failure-free
// runs, choosing the basic exchange over the minimal one helps on exactly
// one of the 2^n initial configurations — the all-1 vector.
func E11BasicVsMin() *Table {
	t := &Table{
		ID:      "E11",
		Title:   "failure-free improvement of Pbasic over Pmin across initial vectors",
		Claim:   "§8: Pbasic improves on Pmin for exactly 1 of the 2^n configurations (the all-1 vector)",
		Columns: []string{"n", "t", "vectors", "improved", "expected"},
		Pass:    true,
	}
	for _, c := range []struct{ n, tf int }{{3, 1}, {4, 1}, {5, 2}, {6, 2}} {
		improved := 0
		forEachInits(c.n, func(inits []model.Value) bool {
			iv := append([]model.Value(nil), inits...)
			pat := adversary.FailureFree(c.n, c.tf+2)
			rb := mustRun(stackFor("basic", c.n, c.tf), pat, iv)
			rm := mustRun(stackFor("min", c.n, c.tf), pat, iv)
			for i := 0; i < c.n; i++ {
				if rb.Round(model.AgentID(i)) < rm.Round(model.AgentID(i)) {
					improved++
					break
				}
			}
			return true
		})
		if improved != 1 {
			t.Pass = false
		}
		t.AddRow(c.n, c.tf, 1<<c.n, improved, 1)
	}
	return t
}

// E12BasicVsFip probes the paper's closing conjecture: even in runs WITH
// failures, P_basic "may not be much worse" than the full-information
// protocol. It measures the distribution of the per-run gap between the
// two protocols' final nonfaulty decision rounds under random omission
// adversaries.
func E12BasicVsFip(seed int64, trials, parallelism int) *Table {
	t := &Table{
		ID:      "E12",
		Title:   fmt.Sprintf("decision-round gap Pbasic − Pfip under random failures (%d trials)", trials),
		Claim:   "§8 conjecture: Pbasic may not be much worse than Pfip even with failures",
		Columns: []string{"n", "t", "gap=0", "gap=1", "gap=2", "gap≥3", "fip later", "avg basic", "avg fip"},
		Pass:    true,
	}
	rng := rand.New(rand.NewSource(seed))
	for _, c := range []struct{ n, tf int }{{5, 2}, {7, 3}} {
		// The gap is defined over corresponding runs, so the two stacks
		// must sweep identical scenarios: collect the random source once
		// and replay it for both batches, index by index.
		scenarios := mustCollect(source.RandomScenarios(rng, c.n, c.tf, c.tf+2, 0.5, int64(trials)))
		basicRuns := mustRunBatch(core.MustStack("basic", core.WithN(c.n), core.WithT(c.tf)), scenarios, parallelism)
		fipRuns := mustRunBatch(core.MustStack("fip", core.WithN(c.n), core.WithT(c.tf)), scenarios, parallelism)
		gapHist := make([]int, 4)
		fipLater := 0
		sumBasic, sumFip := 0, 0
		for trial := 0; trial < trials; trial++ {
			rb := basicRuns[trial].MaxDecisionRound(true)
			rf := fipRuns[trial].MaxDecisionRound(true)
			sumBasic += rb
			sumFip += rf
			gap := rb - rf
			switch {
			case gap < 0:
				fipLater++
			case gap >= 3:
				gapHist[3]++
			default:
				gapHist[gap]++
			}
		}
		avgBasic := float64(sumBasic) / float64(trials)
		avgFip := float64(sumFip) / float64(trials)
		// The conjecture is qualitative; we record it as "holding" when
		// the mean gap stays under one round and the optimal protocol is
		// never slower.
		if fipLater > 0 || avgBasic-avgFip > 1.0 {
			t.Pass = false
		}
		t.AddRow(c.n, c.tf, gapHist[0], gapHist[1], gapHist[2], gapHist[3], fipLater,
			fmt.Sprintf("%.2f", avgBasic), fmt.Sprintf("%.2f", avgFip))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("drop probability 0.5, seed %d", seed))
	return t
}

// E13CrashVsOmission reproduces the introduction's impossibility argument:
// the naive 0-biased protocol (decide 0 on any evidence of an initial 0)
// violates Agreement under omission failures but satisfies the full EBA
// specification under crash failures — exhaustively over all patterns and
// initial vectors. The paper's protocols stay correct under both models.
func E13CrashVsOmission() *Table {
	t := &Table{
		ID:      "E13",
		Title:   "eager 0-bias under crash vs omission failures (exhaustive, n=3, t=1)",
		Claim:   "§1: no eager 0-biased protocol exists under omissions; the run r′ forces disagreement",
		Columns: []string{"stack", "model", "runs", "agreement violations", "expected"},
		Pass:    true,
	}
	n, tf := 3, 1

	count := func(st core.Stack, crash bool) (runs, violations int) {
		mustStream(st, exhaustiveSource(st, crash), 0, func(res *engine.Result) {
			runs++
			for _, v := range spec.CheckRun(res, spec.Options{}) {
				if v.Property == "Agreement" {
					violations++
				}
			}
		})
		return runs, violations
	}

	for _, c := range []struct {
		st     core.Stack
		crash  bool
		expect string
	}{
		{stackFor("naive", n, tf), false, ">0"},
		{stackFor("naive", n, tf), true, "0"},
		{stackFor("min", n, tf), false, "0"},
		{stackFor("min", n, tf), true, "0"},
		{stackFor("basic", n, tf), false, "0"},
		{stackFor("fip", n, tf), false, "0"},
	} {
		runs, violations := count(c.st, c.crash)
		kind := "SO"
		if c.crash {
			kind = "crash"
		}
		ok := (c.expect == "0") == (violations == 0)
		if !ok {
			t.Pass = false
		}
		t.AddRow(c.st.Name, kind, runs, violations, c.expect)
	}
	return t
}
