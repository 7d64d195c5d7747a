// Package eba is a Go implementation of the protocols of Alpturer,
// Halpern, and van der Meyden, "Optimal Eventual Byzantine Agreement
// Protocols with Omission Failures" (PODC 2023): eventual Byzantine
// agreement under sending-omission failures with limited information
// exchange.
//
// The paper's central move is treating a protocol as a *pair*
// ⟨information exchange E, action protocol P⟩; the package makes that
// pairing a first-class operation. Stacks are constructed by name from a
// registry of exchanges, action protocols, and their valid pairings —
//
//	min      = ⟨Emin,  Pmin⟩      — n² bits per run
//	basic    = ⟨Ebasic, Pbasic⟩    — O(n²t) bits
//	fip      = ⟨Efip,  Popt⟩      — the polynomial-time optimum that
//	           settles the open problem of Halpern, Moses, and Waarts
//	           (SIAM J. Comput. 2001)
//	fip+pmin = ⟨Efip,  Pmin⟩      — correct-but-dominated baseline
//	fip-nock = ⟨Efip,  Popt-nock⟩ — the common-knowledge ablation
//	naive    = ⟨Efip,  Pnaive⟩    — the introduction's counterexample
//
// — and executed through a Runner over a sequential or concurrent
// substrate, one scenario at a time or as an order-preserving parallel
// batch. Failure-pattern builders, an EBA specification checker, and an
// epistemic model checker that can verify the paper's implementation and
// optimality theorems on small systems round out the API.
//
// # Quickstart
//
//	stack, _ := eba.NewStack("basic", eba.WithN(5), eba.WithT(2))
//	pattern := eba.Silent(5, stack.Horizon(), 0) // agent 0 faulty & silent
//	inits := []eba.Value{eba.One, eba.One, eba.Zero, eba.One, eba.One}
//	runner := eba.NewRunner(stack)
//	res, err := runner.Run(ctx, eba.Scenario{Pattern: pattern, Inits: inits})
//	// res.Decision, res.DecisionRound, res.Stats ...
//
// Batches fan out over a worker pool and stay deterministic:
//
//	runner = eba.NewRunner(stack, eba.WithParallelism(8))
//	results, err := runner.RunBatch(ctx, scenarios) // results[k] ↔ scenarios[k]
//
// Any registry-valid ⟨exchange, action⟩ pairing the paper discusses is
// constructible with Compose, e.g. eba.Compose("fip", "pmin") for the
// full-information exchange driven by the minimal decision rule.
//
// Implementation detail lives under internal/: model (the formal objects),
// exchange and action (the protocols), registry (the component catalogue),
// graph (communication graphs and the polynomial-time analysis behind
// P_opt), engine and runtime (execution), adversary (failure patterns),
// spec (the EBA specification), episteme (the model checker), and
// experiments (the paper's evaluation tables).
package eba

import (
	"context"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/episteme"
	"repro/internal/model"
	"repro/internal/spec"
)

// Re-exported core types.
type (
	// Value is a consensus value: Zero, One, or None (the paper's ⊥).
	Value = model.Value
	// AgentID identifies an agent (0-based).
	AgentID = model.AgentID
	// ActionKind is a protocol action: Noop, Decide0, or Decide1.
	ActionKind = model.Action
	// Pattern is a failure pattern: the nonfaulty set plus the dropped
	// messages (the paper's adversary).
	Pattern = model.Pattern
	// FailureModel is SO(t) or Crash(t).
	FailureModel = model.FailureModel
	// Result is a completed run: trace, decision ledger, traffic stats.
	Result = engine.Result
	// Stack is a protocol stack: exchange + action protocol.
	Stack = core.Stack
	// Scenario is one (pattern, inits) input for corresponding runs.
	Scenario = core.Scenario
	// Violation is one EBA specification breach.
	Violation = spec.Violation
	// SpecOptions tunes specification checking.
	SpecOptions = spec.Options
	// System is an interpreted system built by exhaustive enumeration.
	System = episteme.System
	// Run is one run of a System: its pattern, its *Stats and its initial
	// preferences (Init); what its agents did is read through the System
	// (DecidedVal, Ledger).
	Run = episteme.Run
	// Program identifies a knowledge-based program (ProgramP0/ProgramP1).
	Program = episteme.Program
)

// Consensus values.
const (
	// Zero is the consensus value 0.
	Zero = model.Zero
	// One is the consensus value 1.
	One = model.One
	// None is the paper's ⊥.
	None = model.None
)

// Knowledge-based programs.
const (
	// ProgramP0 is the paper's P0 (Section 6).
	ProgramP0 = episteme.P0
	// ProgramP1 is the paper's P1 (Section 7).
	ProgramP1 = episteme.P1
)

// SO returns the sending-omissions failure model with at most t faults.
func SO(t int) FailureModel { return model.SO(t) }

// Crash returns the crash failure model with at most t faults.
func Crash(t int) FailureModel { return model.Crash(t) }

// NewPattern returns a failure-free pattern for n agents and the given
// horizon (number of rounds for which drops may be specified).
func NewPattern(n, horizon int) *Pattern { return model.NewPattern(n, horizon) }

// FailureFree returns the pattern with no faulty agents.
func FailureFree(n, horizon int) *Pattern { return adversary.FailureFree(n, horizon) }

// Silent returns a pattern where the listed agents are faulty and never
// deliver a message.
func Silent(n, horizon int, agents ...AgentID) *Pattern {
	return adversary.Silent(n, horizon, agents...)
}

// Example71 returns the adversary of the paper's Example 7.1: agents
// 0..t-1 faulty and silent.
func Example71(n, t, horizon int) *Pattern { return adversary.Example71(n, t, horizon) }

// RandomSO returns a seeded random SO(t) pattern; each message from a
// faulty agent is dropped independently with probability dropProb.
func RandomSO(rng *rand.Rand, n, t, horizon int, dropProb float64) *Pattern {
	return adversary.RandomSO(rng, n, t, horizon, dropProb)
}

// RandomCrash returns a seeded random crash(t) pattern.
func RandomCrash(rng *rand.Rand, n, t, horizon int) *Pattern {
	return adversary.RandomCrash(rng, n, t, horizon)
}

// AdversarySpecSyntax documents the spec-string forms ParseAdversary
// accepts, for CLI help text.
const AdversarySpecSyntax = adversary.SpecSyntax

// ParseAdversary builds a failure pattern from a CLI-style spec string:
// "none", "example71", "random" (uses seed and drop), or "silent:<ids>".
// Like stack names, the forms live in one place so command-line tools
// cannot drift from the library.
func ParseAdversary(spec string, n, t, horizon int, seed int64, drop float64) (*Pattern, error) {
	return adversary.Parse(spec, n, t, horizon, seed, drop)
}

// UniformInits returns an n-vector of identical initial preferences.
func UniformInits(n int, v Value) []Value { return adversary.UniformInits(n, v) }

// CheckRun verifies a completed run against the EBA specification of
// Section 5 (Unique Decision, Agreement, Validity, Termination).
func CheckRun(res *Result, opts SpecOptions) []Violation { return spec.CheckRun(res, opts) }

// CompareRuns computes the dominance relation between two protocols'
// corresponding run sets (the order underlying the paper's optimality).
func CompareRuns(runsP, runsQ []*Result) (spec.Dominance, error) {
	return spec.CompareRuns(runsP, runsQ)
}

// Dominance is the result of CompareRuns.
type Dominance = spec.Dominance

// CheckOption tunes the model checker: WithCheckParallelism.
type CheckOption = episteme.Option

// WithCheckParallelism sets the model checker's worker count: run
// execution, index interning, C_N condensation, and the checkers' point
// loops all shard over k workers. k <= 0 (and the default) means one
// worker per available CPU. Results are independent of k — every parallel
// path reassembles its output in the canonical enumeration order.
func WithCheckParallelism(k int) CheckOption { return episteme.WithParallelism(k) }

// BuildSystem builds the stack's interpreted system by exhaustive
// enumeration of every failure pattern and initial assignment in the
// stack's EBA context (small n and t only — the construction is
// exponential). Runs stream through the same Runner worker pool RunBatch
// uses; ctx cancels the build, and WithCheckParallelism tunes it. The
// returned System serves the knowledge checks (CheckImplements,
// CheckSafety, CheckOptimalityFIP) and is safe for concurrent use.
//
// The checker, not the caller, picks the symmetry quotient: when the
// stack's exchange can rewrite a local-state key under an agent
// relabeling (every registered exchange can) only one representative per
// agent-permutation orbit is executed — up to n! fewer runs — and the
// full System is rebuilt from them, with verdicts bit-identical to the
// run-everything build's.
func BuildSystem(ctx context.Context, stack Stack, opts ...CheckOption) (*System, error) {
	return episteme.BuildSystem(ctx, episteme.ContextFor(stack), stack.Action, opts...)
}

// VerifyImplementation machine-checks that the stack's action protocol
// implements the given knowledge-based program in the stack's EBA context
// (Theorems 6.5, 6.6, A.21), by exhaustive enumeration of every failure
// pattern and initial assignment. Exponential: small n and t only. The
// returned strings describe disagreements (at most 10, with a truncation
// notice when more were found); empty means verified.
func VerifyImplementation(ctx context.Context, stack Stack, prog Program, opts ...CheckOption) ([]string, error) {
	sys, err := BuildSystem(ctx, stack, opts...)
	if err != nil {
		return nil, err
	}
	ms, err := sys.CheckImplements(ctx, prog, 10)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, m := range ms {
		out = append(out, m.String())
	}
	return out, nil
}

// VerifyOptimality machine-checks the Theorem 7.5 optimality
// characterization for a full-information stack by exhaustive enumeration.
// The returned strings describe violations (at most 10, with a truncation
// notice when more were found); empty means the stack's decisions are
// optimal with respect to full information exchange.
func VerifyOptimality(ctx context.Context, stack Stack, opts ...CheckOption) ([]string, error) {
	sys, err := BuildSystem(ctx, stack, opts...)
	if err != nil {
		return nil, err
	}
	return sys.CheckOptimalityFIP(ctx, -1, 10)
}
