// Command ebabench regenerates every experiment table of the
// reproduction (E1–E4, E6, E11, E12, E15, E16 and E20; one generator each
// in internal/experiments): the message-complexity and decision-time
// claims of Section 8, Example 7.1, the theorem matrix that model-checks
// every (context, stack) system and compares it with the protocol
// synthesized from its program, the ablations, and early stopping. Last
// comes E6L, the theorem matrix's larger rows (n ≤ 5), each pinned: about
// a minute and under 2 GB, which the command's tests leave out.
// Each table is printed with its pass/fail verdict and the command exits
// nonzero if any experiment fails to reproduce the paper's claim. Randomized scenario sweeps fan out over
// the library's batch Runner; -parallel controls the worker count and
// never changes the numbers (batches are deterministic and
// order-preserving). Performance is measured elsewhere: `go run
// ./benchmark` is the repository's one benchmark.
//
// Usage:
//
//	ebabench                  # every table, the model checks included
//	ebabench -trials 2000     # more random trials
//	ebabench -parallel 4      # 4 workers for sweeps and model checking
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], experiments.Generators, largerCells); err != nil {
		fmt.Fprintln(os.Stderr, "ebabench:", err)
		os.Exit(1)
	}
}

// largerCells is the theorem matrix's larger rows, which the command
// prints after every other table and its tests leave out.
func largerCells(cfg experiments.Config) []func() *experiments.Table {
	return []func() *experiments.Table{func() *experiments.Table { return experiments.E6LargerCells(cfg.Parallelism) }}
}

// run prints the tables of every generator list in order.
func run(args []string, lists ...func(experiments.Config) []func() *experiments.Table) error {
	fs := flag.NewFlagSet("ebabench", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", experiments.DefaultConfig.Seed, "random seed")
		trials   = fs.Int("trials", experiments.DefaultConfig.Trials, "random trials per experiment")
		parallel = fs.Int("parallel", 0, "workers for the scenario sweeps and model checks (0 = one per CPU)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trials < 1 {
		return fmt.Errorf("-trials %d: need at least 1 random trial per experiment", *trials)
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: need 0 (one worker per CPU) or more", *parallel)
	}

	cfg := experiments.Config{Seed: *seed, Trials: *trials, Parallelism: *parallel}
	fmt.Printf("Reproduction harness — Alpturer, Halpern, van der Meyden (PODC 2023)\n")
	fmt.Printf("seed=%d trials=%d parallel=%d\n\n", cfg.Seed, cfg.Trials, cfg.Parallelism)

	failures := 0
	start := time.Now()
	for _, list := range lists {
		for _, gen := range list(cfg) {
			t0 := time.Now()
			tb := gen()
			fmt.Print(tb.Render())
			fmt.Printf("  (%.2fs)\n\n", time.Since(t0).Seconds())
			if !tb.Pass {
				failures++
			}
		}
	}
	fmt.Printf("total: %.1fs\n", time.Since(start).Seconds())
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) failed", failures)
	}
	fmt.Println("all experiments reproduce the paper's claims")
	return nil
}
