// Deterministic verdict output, shared by every fan-in: cmd/ebashard's
// -check -merge, ebacheck and ebaserve's /v1/check write their
// verdict lines through this one function, so a sharded run's verdicts
// diff clean against a single-process run's.

package fabric

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/episteme"
	"repro/internal/registry"
)

// VerdictOptions tunes WriteVerdicts.
type VerdictOptions struct {
	// Safety also checks the Definition 6.2 safety condition.
	Safety bool
	// Optimality checks the Theorem 7.5 characterization (fip only).
	Optimality bool
	// MaxViolations caps the violations listed per check (0 = 5).
	MaxViolations int
}

// WriteVerdicts writes the deterministic verdict block — stack line, run
// count, then one verdict per enabled check, no timings — so sharded and
// single-process outputs compare byte for byte. The
// stack name is resolved against the registry for its knowledge-based
// program. Failed verdicts return an ErrVerification-wrapped error after
// the full block is written; the output itself names the violations.
func WriteVerdicts(ctx context.Context, w io.Writer, sys *episteme.System, stackName string, opts VerdictOptions) error {
	if stackName == "" {
		return fmt.Errorf("fabric: no stack name to resolve a knowledge-based program for")
	}
	var info registry.StackInfo
	for _, si := range registry.Stacks() {
		if si.Name == stackName {
			info = si
			break
		}
	}
	if info.Name == "" {
		return fmt.Errorf("fabric: unknown stack %q", stackName)
	}
	if info.Program == "" {
		return fmt.Errorf("fabric: stack %q declares no knowledge-based program to check against", stackName)
	}
	prog := episteme.P0
	if info.Program == "P1" {
		prog = episteme.P1
	}
	max := opts.MaxViolations
	if max <= 0 {
		max = 5
	}

	// A symmetry-quotiented system (the merge of quotiented stripes, which
	// is what every fip stripe is) carries one run per agent-permutation
	// orbit; expand it back to the full sweep before checking, so the
	// verdict block — including the run count — is the full sweep's.
	if sys.Quotiented() {
		stack, err := core.NewStack(stackName, core.WithN(sys.N), core.WithT(sys.T), core.WithHorizon(sys.Horizon))
		if err != nil {
			return fmt.Errorf("fabric: resolving stack for quotient expansion: %w", err)
		}
		sys, err = episteme.ExpandQuotient(ctx, sys, episteme.ContextFor(stack))
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "stack: %s (n=%d, t=%d, horizon=%d)\n", stackName, sys.N, sys.T, sys.Horizon)
	fmt.Fprintf(w, "runs: %d\n", len(sys.Runs))

	failed := false
	ms, err := sys.CheckImplements(ctx, prog, max)
	if err != nil {
		return err
	}
	if len(ms) == 0 {
		fmt.Fprintf(w, "implements %v: OK\n", prog)
	} else {
		failed = true
		fmt.Fprintf(w, "implements %v: FAILED\n", prog)
		for _, m := range ms {
			fmt.Fprintf(w, "  %s\n", m)
		}
	}

	if opts.Safety {
		vs, err := sys.CheckSafety(ctx, max)
		if err != nil {
			return err
		}
		if len(vs) == 0 {
			fmt.Fprintf(w, "safety: OK\n")
		} else {
			fmt.Fprintf(w, "safety: violated\n")
			for _, v := range vs {
				fmt.Fprintf(w, "  %s\n", v)
			}
			// The fip stacks decide past the safety condition's horizon by
			// design; their safety line is informative, not a failure.
			if !strings.HasPrefix(stackName, "fip") {
				failed = true
			}
		}
	}

	if opts.Optimality && stackName == "fip" {
		vs, err := sys.CheckOptimalityFIP(ctx, -1, max)
		if err != nil {
			return err
		}
		if len(vs) == 0 {
			fmt.Fprintf(w, "optimality: OK\n")
		} else {
			failed = true
			fmt.Fprintf(w, "optimality: FAILED\n")
			for _, v := range vs {
				fmt.Fprintf(w, "  %s\n", v)
			}
		}
	}
	if failed {
		return fmt.Errorf("%w: verdicts failed", ErrVerification)
	}
	return nil
}
