// Command ebabench regenerates every experiment table of the
// reproduction (E1–E4, E6 and E11–E16, E20; one generator each in
// internal/experiments): the message-complexity and decision-time claims
// of Section 8, Example 7.1, the theorem matrix that model-checks every
// (context, stack) system, synthesis, the ablations, and early stopping.
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
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ebabench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
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

	cfg := experiments.Config{Seed: *seed, Trials: *trials, Parallelism: *parallel}
	fmt.Printf("Reproduction harness — Alpturer, Halpern, van der Meyden (PODC 2023)\n")
	fmt.Printf("seed=%d trials=%d parallel=%d\n\n", cfg.Seed, cfg.Trials, cfg.Parallelism)

	failures := 0
	start := time.Now()
	for _, gen := range experiments.Generators(cfg) {
		t0 := time.Now()
		tb := gen()
		fmt.Print(tb.Render())
		fmt.Printf("  (%.2fs)\n\n", time.Since(t0).Seconds())
		if !tb.Pass {
			failures++
		}
	}
	fmt.Printf("total: %.1fs\n", time.Since(start).Seconds())
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) failed", failures)
	}
	fmt.Println("all experiments reproduce the paper's claims")
	return nil
}
