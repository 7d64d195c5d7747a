// Command ebasynth derives a concrete action protocol from a
// knowledge-based program by epistemic synthesis — the direction the
// paper's discussion proposes — and compares it against the paper's
// hand-written implementation over the same exchange, printing the first
// disagreements; it exits 1 when there are any. The exchange picks the
// program and the reference. Exchange names resolve against the library
// registry.
//
// Usage:
//
//	ebasynth -exchange min -n 3 -t 1    # synthesize P0 over Emin, compare to Pmin
//	ebasynth -exchange basic -n 3 -t 1  # synthesize P0 over Ebasic, compare to Pbasic
//	ebasynth -exchange fip -n 3 -t 1    # synthesize P1 over Efip, compare to Popt
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	eba "repro"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ebasynth:", err)
		os.Exit(1)
	}
}

// references maps a synthesizable exchange to the knowledge-based program
// synthesized over it, the registered stack whose action protocol is the
// paper's implementation of that program, and the theorem saying so.
var references = map[string]struct {
	stack   string
	prog    eba.Program
	theorem string
}{
	"min":   {"min", eba.ProgramP0, "6.5"},
	"basic": {"basic", eba.ProgramP0, "6.6"},
	"fip":   {"fip", eba.ProgramP1, "A.21"},
}

// shown caps the disagreements printed; the rest are counted.
const shown = 10

func run(args []string) error {
	fs := flag.NewFlagSet("ebasynth", flag.ContinueOnError)
	var (
		exName   = fs.String("exchange", "min", "information exchange: min, basic (program P0) or fip (program P1); registry names")
		n        = fs.Int("n", 3, "number of agents")
		t        = fs.Int("t", 1, "failure bound t")
		parallel = fs.Int("parallel", 0, "model-checker workers (0 = one per CPU; never changes the result)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: need 0 (one worker per CPU) or more", *parallel)
	}

	ref, ok := references[*exName]
	if !ok {
		supported := make([]string, 0, len(references))
		for name := range references {
			supported = append(supported, name)
		}
		sort.Strings(supported)
		return fmt.Errorf("no synthesis reference for exchange %q (have %s; registry exchanges: %s)",
			*exName, strings.Join(supported, ", "), strings.Join(eba.ExchangeNames(), ", "))
	}
	stack, err := eba.NewStack(ref.stack, eba.WithN(*n), eba.WithT(*t))
	if err != nil {
		return err
	}
	ctx, par := context.Background(), eba.WithCheckParallelism(*parallel)

	fmt.Printf("synthesizing a concrete protocol from %v over %s (n=%d, t=%d)...\n",
		ref.prog, stack.Exchange.Name(), *n, *t)
	t0 := time.Now()
	synth, err := eba.Synthesize(ctx, stack, ref.prog, par)
	if err != nil {
		return err
	}
	fmt.Printf("  %d reachable (agent, state) entries in %.2fs\n", synth.Size(), time.Since(t0).Seconds())

	refSys, err := eba.BuildSystem(ctx, stack, par)
	if err != nil {
		return err
	}
	fmt.Printf("comparing against the paper's %s over %d runs ... ", stack.Action.Name(), len(refSys.Runs))
	ms, err := synth.Diff(ctx, refSys, shown)
	if err != nil {
		return err
	}
	if len(ms) == 0 {
		fmt.Println("identical on every reachable state")
		fmt.Printf("\nTheorem %s recovered by synthesis.\n", ref.theorem)
		return nil
	}
	diffs := len(ms)
	if last := ms[len(ms)-1]; last.More > 0 {
		diffs += last.More - 1
	}
	fmt.Printf("%d disagreements\n", diffs)
	for _, m := range ms {
		fmt.Println("  " + m.String())
	}
	return fmt.Errorf("synthesized protocol differs from %s", stack.Action.Name())
}
