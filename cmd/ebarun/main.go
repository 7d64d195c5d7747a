// Command ebarun executes one EBA configuration and prints the per-round
// trace, the decision ledger, and the traffic statistics. Stack,
// exchange, and action names resolve against the library registry, so
// every pairing the library can build is selectable here — including
// ad-hoc compositions written as "exchange+action".
//
// Usage:
//
//	ebarun -stack fip -n 6 -t 2 -adversary example71 -inits all1
//	ebarun -stack fip+pmin -n 5 -t 2 -adversary silent:0 -inits all1
//	ebarun -stack basic+pmin -n 5 -t 2 -inits 01101   # ad-hoc composition
//	ebarun -stack basic -n 4 -t 1 -executor concurrent
//
// With -sweep N the command streams N seeded random scenarios (drop
// probability from -drop, seed from -seed) through the Runner's
// source-driven path instead of executing one configuration, and prints
// the decision-round distribution:
//
//	ebarun -stack fip -n 6 -t 2 -sweep 10000 -drop 0.4
//	ebarun -stack basic -n 8 -t 3 -sweep 100000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	eba "repro"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ebarun:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ebarun", flag.ContinueOnError)
	var (
		stackName = fs.String("stack", "basic",
			"protocol stack: "+strings.Join(eba.StackNames(), ", ")+", or an ad-hoc \"exchange+action\" pairing")
		n         = fs.Int("n", 5, "number of agents")
		t         = fs.Int("t", 2, "failure bound t")
		advSpec   = fs.String("adversary", "none", "adversary: "+eba.AdversarySpecSyntax)
		seed      = fs.Int64("seed", 1, "seed for -adversary random")
		drop      = fs.Float64("drop", 0.5, "drop probability for -adversary random")
		initsSpec = fs.String("inits", "all1", "initial preferences: all0, all1, or a 0/1 string")
		execName  = fs.String("executor", "sequential", "execution substrate: sequential or concurrent")
		format    = fs.String("format", "summary", "output: summary, trace (message-level), or json")
		sweepN    = fs.Int64("sweep", 0, "stream this many seeded random scenarios through the Runner instead of one configured run")
		quotient  = fs.Bool("quotient", false, "run the canonical representative of the configured scenario's agent-permutation orbit instead of the scenario itself")
		cacheDir  = fs.String("cache", "", "-sweep: result cache directory — answer already-executed scenarios from it instead of re-running")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stack, err := makeStack(*stackName, *n, *t)
	if err != nil {
		return err
	}
	executor, err := makeExecutor(*execName)
	if err != nil {
		return err
	}
	if *sweepN > 0 {
		// The sweep generates its own adversaries and inits and prints
		// only the aggregate; reject flags it would otherwise silently
		// drop (the executor is honored).
		var incompatible []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "adversary", "inits", "format", "quotient":
				incompatible = append(incompatible, "-"+f.Name)
			}
		})
		if len(incompatible) > 0 {
			return fmt.Errorf("%s cannot apply to -sweep (the sweep draws random adversaries and inits and prints a summary; symmetry quotients are for exhaustive sweeps — see ebashard -quotient)",
				strings.Join(incompatible, ", "))
		}
		store, closeStore, err := eba.OpenResultCache(*cacheDir)
		if err != nil {
			return err
		}
		defer closeStore()
		return runSweep(stack, executor, *sweepN, *seed, *drop, store)
	}
	if *cacheDir != "" {
		return fmt.Errorf("-cache applies to -sweep only (single runs print full traces, which the cache does not store)")
	}
	pat, err := makeAdversary(*advSpec, *n, *t, stack.Horizon(), *seed, *drop)
	if err != nil {
		return err
	}
	inits, err := makeInits(*initsSpec, *n)
	if err != nil {
		return err
	}
	var orbit int64
	if *quotient {
		// Execute the orbit's canonical representative: under an
		// agent-symmetric stack its run is the configured scenario's with
		// the agents relabeled, and it is the one the quotiented sweeps
		// (ebashard -quotient) would have executed.
		pat, inits, orbit = eba.CanonicalizeScenario(pat, inits)
	}

	runner := eba.NewRunner(stack, eba.WithExecutor(executor))
	res, err := runner.Run(context.Background(), eba.Scenario{Pattern: pat, Inits: inits})
	if err != nil {
		return err
	}

	switch *format {
	case "summary":
		// fall through to the summary below
	case "trace":
		fmt.Print(trace.New(res, stack.Exchange, stack.Action.Name()).Render())
		return nil
	case "json":
		data, err := trace.New(res, stack.Exchange, stack.Action.Name()).JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	default:
		return fmt.Errorf("unknown format %q", *format)
	}

	fmt.Printf("stack=%s n=%d t=%d horizon=%d executor=%s adversary=%s\n",
		stack.Name, *n, *t, stack.Horizon(), executor.Name(), pat)
	fmt.Printf("inits: %s\n", renderValues(inits))
	if *quotient {
		fmt.Printf("symmetry: canonical representative, orbit size %d\n", orbit)
	}
	fmt.Println()
	for m := 0; m < res.Horizon; m++ {
		var acts []string
		for i := 0; i < res.N; i++ {
			if a := res.Actions[m][i]; a.IsDecide() {
				acts = append(acts, fmt.Sprintf("agent %d %v", i, a))
			}
		}
		if len(acts) == 0 {
			fmt.Printf("round %2d: (no decisions)\n", m+1)
		} else {
			fmt.Printf("round %2d: %s\n", m+1, strings.Join(acts, ", "))
		}
	}
	fmt.Println()
	for i := 0; i < res.N; i++ {
		id := eba.AgentID(i)
		status := "nonfaulty"
		if res.Pattern.Faulty(id) {
			status = "FAULTY"
		}
		if res.Round(id) == 0 {
			fmt.Printf("agent %d (%s): undecided\n", i, status)
		} else {
			fmt.Printf("agent %d (%s): decided %v in round %d\n", i, status, res.Decided(id), res.Round(id))
		}
	}
	fmt.Printf("\ntraffic: %d messages / %d bits sent; %d messages / %d bits delivered\n",
		res.Stats.MessagesSent, res.Stats.BitsSent,
		res.Stats.MessagesDelivered, res.Stats.BitsDelivered)

	if vs := eba.CheckRun(res, eba.SpecOptions{RoundBound: stack.Horizon()}); len(vs) != 0 {
		fmt.Println("\nEBA specification violations:")
		for _, v := range vs {
			fmt.Println(" ", v)
		}
		if stack.Name != "naive" {
			return fmt.Errorf("unexpected specification violation")
		}
		fmt.Println("(expected: the naive stack is the paper's counterexample)")
	} else {
		fmt.Println("\nEBA specification: satisfied")
	}
	return nil
}

// runSweep streams count seeded random scenarios through the Runner's
// source-driven path — never materializing them — and prints the
// distribution of final nonfaulty decision rounds plus any specification
// violations.
func runSweep(stack eba.Stack, executor eba.Executor, count, seed int64, drop float64, store eba.ResultCache) error {
	src := eba.SourceRandomSO(seed, stack.N, stack.T, stack.Horizon(), drop, count)
	runnerOpts := []eba.RunnerOption{
		eba.WithExecutor(executor),
		eba.WithParallelism(0),
		eba.WithSpecCheck(eba.SpecOptions{RoundBound: stack.Horizon()}),
	}
	if store != nil {
		runnerOpts = append(runnerOpts, eba.WithResultCache(store, eba.CacheFingerprint()))
	}
	runner := eba.NewRunner(stack, runnerOpts...)

	fmt.Printf("sweep: stack=%s n=%d t=%d horizon=%d executor=%s scenarios=%d drop=%.2f seed=%d\n\n",
		stack.Name, stack.N, stack.T, stack.Horizon(), executor.Name(), count, drop, seed)
	hist := make([]int64, stack.Horizon()+1)
	var runs, violations int64
	var firstViolation error
	for oc := range runner.StreamFrom(context.Background(), src) {
		runs++
		if oc.Err != nil {
			violations++
			if firstViolation == nil {
				firstViolation = oc.Err
			}
			continue
		}
		if r := oc.Result.MaxDecisionRound(true); r >= 0 && r < len(hist) {
			hist[r]++
		}
	}
	for r, c := range hist {
		if r == 0 && c == 0 {
			continue
		}
		fmt.Printf("decided by round %2d: %8d run(s)\n", r, c)
	}
	fmt.Printf("\n%d runs; EBA specification violations: %d\n", runs, violations)
	if statser, ok := store.(interface{ Stats() eba.CacheStats }); ok {
		st := statser.Stats()
		fmt.Printf("cache: %d hits, %d misses\n", st.Hits, st.Misses)
	}
	if violations > 0 {
		if stack.Name != "naive" {
			return fmt.Errorf("unexpected specification violations (first: %v)", firstViolation)
		}
		fmt.Println("(expected: the naive stack is the paper's counterexample)")
	}
	return nil
}

// makeStack resolves a registered stack name, falling back to the
// "exchange+action" composition syntax for ad-hoc pairings.
func makeStack(name string, n, t int) (eba.Stack, error) {
	st, err := eba.NewStack(name, eba.WithN(n), eba.WithT(t))
	if err == nil {
		return st, nil
	}
	if exName, actName, ok := strings.Cut(name, "+"); ok {
		st, composeErr := eba.Compose(exName, actName, eba.WithN(n), eba.WithT(t))
		if composeErr == nil {
			return st, nil
		}
		return eba.Stack{}, composeErr
	}
	return eba.Stack{}, err
}

// makeExecutor resolves the executor name.
func makeExecutor(name string) (eba.Executor, error) {
	switch name {
	case "sequential":
		return eba.Sequential, nil
	case "concurrent":
		return eba.Concurrent, nil
	}
	return nil, fmt.Errorf("unknown executor %q (have sequential, concurrent)", name)
}

// makeAdversary delegates to the library's spec parser, the single place
// adversary spec forms are defined.
func makeAdversary(specStr string, n, t, horizon int, seed int64, drop float64) (*eba.Pattern, error) {
	return eba.ParseAdversary(specStr, n, t, horizon, seed, drop)
}

func makeInits(specStr string, n int) ([]eba.Value, error) {
	switch specStr {
	case "all0":
		return eba.UniformInits(n, eba.Zero), nil
	case "all1":
		return eba.UniformInits(n, eba.One), nil
	}
	if len(specStr) != n {
		return nil, fmt.Errorf("inits %q has %d digits for %d agents", specStr, len(specStr), n)
	}
	out := make([]eba.Value, n)
	for i, ch := range specStr {
		switch ch {
		case '0':
			out[i] = eba.Zero
		case '1':
			out[i] = eba.One
		default:
			return nil, fmt.Errorf("inits %q must be 0/1 digits", specStr)
		}
	}
	return out, nil
}

func renderValues(vs []eba.Value) string {
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(v.String())
	}
	return b.String()
}
