// Command ebabench regenerates every experiment table of the
// reproduction (E1–E17, one generator each in internal/experiments): the
// message-complexity and decision-time claims of Section 8, Example 7.1,
// the termination bound, the machine-checked theorems, and the
// crash-vs-omission ablation. Each table is printed with its pass/fail
// verdict and the command exits nonzero if any experiment fails to
// reproduce the paper's claim. Randomized scenario sweeps fan out over
// the library's batch Runner; -parallel controls the worker count and
// never changes the numbers (batches are deterministic and
// order-preserving). Performance is measured elsewhere: `go run
// ./benchmark` is the repository's one benchmark.
//
// Usage:
//
//	ebabench                  # everything, including the model checks
//	ebabench -skip-slow       # simulation experiments only
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
		skipSlow = fs.Bool("skip-slow", false, "skip the exhaustive model-checking experiments")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.Config{Seed: *seed, Trials: *trials, Parallelism: *parallel, SkipSlow: *skipSlow}
	fmt.Printf("Reproduction harness — Alpturer, Halpern, van der Meyden (PODC 2023)\n")
	fmt.Printf("seed=%d trials=%d parallel=%d skip-slow=%v\n\n", cfg.Seed, cfg.Trials, cfg.Parallelism, cfg.SkipSlow)

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
