package eba

import (
	"context"

	"repro/internal/core"
	"repro/internal/episteme"
	"repro/internal/registry"
)

// StackOption configures NewStack and Compose: WithN, WithT, WithHorizon.
type StackOption = core.Option

// StackInfo describes a registered named pairing, for discovery and CLI
// help.
type StackInfo = registry.StackInfo

// WithN sets the number of agents (default 5).
func WithN(n int) StackOption { return core.WithN(n) }

// WithT sets the failure bound t (default 2); NewStack and Compose
// refuse t ≥ n.
func WithT(t int) StackOption { return core.WithT(t) }

// WithHorizon overrides the execution horizon (default t+2, the bound of
// Proposition 6.1 by which every EBA stack has decided).
func WithHorizon(h int) StackOption { return core.WithHorizon(h) }

// NewStack constructs a registered protocol stack by name. The registered
// names are the paper's pairings:
//
//	min      = ⟨Emin,  Pmin⟩      — optimal wrt the minimal exchange
//	basic    = ⟨Ebasic, Pbasic⟩    — optimal wrt the basic exchange
//	fip      = ⟨Efip,  Popt⟩      — optimal wrt full information
//	fip+pmin = ⟨Efip,  Pmin⟩      — correct-but-dominated baseline
//	fip-nock = ⟨Efip,  Popt-nock⟩ — the common-knowledge ablation
//	naive    = ⟨Efip,  Pnaive⟩    — the introduction's counterexample
//
// Example:
//
//	stack, err := eba.NewStack("fip", eba.WithN(6), eba.WithT(2))
func NewStack(name string, opts ...StackOption) (Stack, error) {
	return core.NewStack(name, opts...)
}

// Compose constructs the stack pairing any registered information
// exchange ("min", "basic", "fip") with any registered action
// protocol ("pmin", "pbasic", "popt", "popt-nock", "pnaive"), validating
// that the action protocol can read the exchange's local states. This is
// the paper's central move made operational: a protocol is the pair
// ⟨information exchange E, action protocol P⟩, and any well-typed pairing
// is runnable:
//
//	stack, err := eba.Compose("fip", "pmin", eba.WithN(8), eba.WithT(3))
func Compose(exchangeName, actionName string, opts ...StackOption) (Stack, error) {
	return core.Compose(exchangeName, actionName, opts...)
}

// MustStack is NewStack for call sites where the name and configuration
// are compile-time constants and an error is a bug.
func MustStack(name string, opts ...StackOption) Stack { return core.MustStack(name, opts...) }

// StackNames lists the registered stack names, sorted.
func StackNames() []string { return registry.StackNames() }

// ExchangeNames lists the registered information-exchange names, sorted.
func ExchangeNames() []string { return registry.ExchangeNames() }

// ActionNames lists the registered action-protocol names, sorted.
func ActionNames() []string { return registry.ActionNames() }

// Stacks lists the registered stacks with their one-line descriptions.
func Stacks() []StackInfo { return registry.Stacks() }

// Synthesized is a concrete action protocol derived from a knowledge-based
// program by epistemic synthesis; Diff compares it with a reference
// protocol's system.
type Synthesized = episteme.Synthesized

// Synthesize derives a concrete action protocol from the knowledge-based
// program over the stack's EBA context (the "epistemic synthesis"
// direction of the paper's discussion) in one model-checker build per
// time, each at that time as its horizon: the build runs the table derived
// so far and decides that time's actions. It never builds the program's
// own system; BuildSystem over the stack with the returned protocol as its
// Action does. Exponential: small n and t only. ctx cancels the
// construction; WithCheckParallelism tunes the worker pool it shards
// over, and is the only option it forwards.
func Synthesize(ctx context.Context, stack Stack, prog Program, opts ...CheckOption) (*Synthesized, error) {
	return episteme.Synthesize(ctx, episteme.ContextFor(stack), prog, opts...)
}
