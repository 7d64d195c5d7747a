// Command ebacheck model-checks the paper's knowledge-theoretic claims on
// a small exhaustive system: that a concrete protocol implements its
// knowledge-based program (Theorems 6.5, 6.6, A.21), that the safety
// condition of Definition 6.2 holds (Proposition 6.4), and that the
// optimality characterization of Theorem 7.5 holds over γ_fip. Stack
// names resolve against the library registry.
//
// Usage:
//
//	ebacheck -stack min -n 3 -t 1            # Pmin implements P0
//	ebacheck -stack fip -n 3 -t 1            # Popt implements P1 + Theorem 7.5
//	ebacheck -stack basic -n 3 -t 1 -safety  # + Definition 6.2
//	ebacheck -stack fip-nock -n 3 -t 1       # the ablation implements P0
//
// The brute-force counterpart, the exhaustive SO(t) sweep with every
// run spec-checked, is ebashard's sweep mode.
//
// ebacheck prints the verdict block ebashard -check -merge and ebaserve's
// /v1/check print (one writer, eba.WriteVerdicts), so the three diff
// clean; timings go to stderr. Exit status 2 means a verdict failed, 1
// anything else.
//
// Everything is exhaustive: expect exponential cost beyond n=4, t=1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	eba "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ebacheck:", err)
		if errors.Is(err, eba.ErrFabricVerification) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// checkableStacks are the registered stacks that declare a
// knowledge-based program to check against (StackInfo.Program): Popt
// implements P1; Pmin, Pbasic, and the ablated Popt-nock implement P0
// over their respective exchanges. Stacks that implement neither program
// (naive, fip+pmin) carry no Program and are excluded, so a stack added
// to the registry picks its checkability there, not here.
func checkableStacks() []string {
	var names []string
	for _, info := range eba.Stacks() {
		if info.Program != "" {
			names = append(names, info.Name)
		}
	}
	return names
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ebacheck", flag.ContinueOnError)
	checkable := checkableStacks()
	var (
		stackName  = fs.String("stack", "min", "protocol stack: "+strings.Join(checkable, ", "))
		n          = fs.Int("n", 3, "number of agents")
		t          = fs.Int("t", 1, "failure bound t")
		safety     = fs.Bool("safety", false, "also check the Definition 6.2 safety condition")
		optimality = fs.Bool("optimality", true, "for -stack fip: check the Theorem 7.5 characterization")
		parallel   = fs.Int("parallel", 0, "model-checker workers (0 = one per CPU; never changes the verdicts)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: need 0 (one worker per CPU) or more", *parallel)
	}

	if !slices.Contains(checkable, *stackName) {
		return fmt.Errorf("unknown or uncheckable stack %q (have %s)",
			*stackName, strings.Join(checkable, ", "))
	}
	stack, err := eba.NewStack(*stackName, eba.WithN(*n), eba.WithT(*t))
	if err != nil {
		return err
	}

	ctx := context.Background()
	t0 := time.Now()
	sys, err := eba.BuildSystem(ctx, stack, eba.WithCheckParallelism(*parallel))
	if err != nil {
		return err
	}
	built := time.Now()
	err = eba.WriteVerdicts(ctx, stdout, sys, stack.Name, eba.VerdictOptions{Safety: *safety, Optimality: *optimality})
	fmt.Fprintf(os.Stderr, "ebacheck: built in %.2fs, checked in %.2fs\n",
		built.Sub(t0).Seconds(), time.Since(built).Seconds())
	return err
}
