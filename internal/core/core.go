// Package core assembles the paper's protocol stacks — an
// information-exchange protocol paired with the action protocol that is
// optimal with respect to it — and provides the high-level entry points
// the examples, benchmarks, and command-line tools are built on.
//
// Stacks are constructed by name through internal/registry, which is the
// single catalogue of exchanges, action protocols, and their valid
// pairings:
//
//	min      = ⟨Emin,  Pmin⟩      — n² bits per run, decides by t+2
//	basic    = ⟨Ebasic, Pbasic⟩    — O(n²t) bits, round 2 when failure-free
//	fip      = ⟨Efip,  Popt⟩      — O(n⁴t²) bits, optimal (Corollary 7.8)
//	fip+pmin = ⟨Efip,  Pmin⟩      — correct-but-dominated baseline
//	fip-nock = ⟨Efip,  Popt-nock⟩ — the common-knowledge ablation
//	naive    = ⟨Efip,  Pnaive⟩    — NOT an EBA protocol under omissions
//
// NewStack resolves a named pairing; Compose builds any registry-valid
// ⟨exchange, action⟩ pair, named after the registered stack it matches or
// "exchange+action" otherwise. Execution happens through a Runner (see
// runner.go), which batches scenarios over a sequential or concurrent
// executor.
package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/runtime"
)

// Stack is a complete protocol: an information-exchange protocol together
// with a matching action protocol and the failure bound they are
// configured for.
type Stack struct {
	// Name identifies the stack ("min", "basic", "fip", "fip+pmin",
	// "fip-nock", "naive", or "exchange+action" for ad-hoc pairings).
	Name string
	// Exchange is the information-exchange protocol E.
	Exchange model.Exchange
	// Action is the action protocol P. Over a model.KeyPermuter exchange
	// it must treat agents by role, not id: RunShard relabels runs.
	Action model.ActionProtocol
	// N is the number of agents, T the failure bound.
	N, T int

	// horizon, when positive, overrides the default t+2 execution horizon
	// (set with WithHorizon).
	horizon int
}

// Option configures NewStack and Compose.
type Option func(*stackConfig)

type stackConfig struct {
	n, t    int
	horizon int
}

// WithN sets the number of agents (default 5).
func WithN(n int) Option { return func(c *stackConfig) { c.n = n } }

// WithT sets the failure bound t (default 2); Compose refuses t ≥ n.
func WithT(t int) Option { return func(c *stackConfig) { c.t = t } }

// WithHorizon overrides the stack's execution horizon (default t+2, the
// bound of Proposition 6.1 by which every EBA stack has decided).
func WithHorizon(h int) Option { return func(c *stackConfig) { c.horizon = h } }

// NewStack constructs a registered stack by name. The default
// configuration is n=5 agents with failure bound t=2; override with
// WithN, WithT, and WithHorizon.
func NewStack(name string, opts ...Option) (Stack, error) {
	info, err := registry.Stack(name)
	if err != nil {
		return Stack{}, err
	}
	s, err := Compose(info.Exchange, info.Action, opts...)
	if err != nil {
		return Stack{}, err
	}
	s.Name = info.Name
	return s, nil
}

// Compose constructs the stack pairing the named exchange with the named
// action protocol, validating the pairing against the registry. If the
// pair is a registered stack the result carries its canonical name;
// otherwise it is named "exchange+action".
func Compose(exchangeName, actionName string, opts ...Option) (Stack, error) {
	cfg := stackConfig{n: 5, t: 2}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.n <= 0 {
		return Stack{}, fmt.Errorf("core: %d agents; WithN requires n > 0", cfg.n)
	}
	if cfg.t < 0 {
		return Stack{}, fmt.Errorf("core: negative failure bound %d", cfg.t)
	}
	if cfg.t >= cfg.n {
		return Stack{}, fmt.Errorf("core: failure bound t=%d with n=%d agents; every context needs t < n, so that some agent is guaranteed nonfaulty", cfg.t, cfg.n)
	}
	if cfg.horizon < 0 {
		return Stack{}, fmt.Errorf("core: negative horizon %d", cfg.horizon)
	}
	ex, act, err := registry.Compose(exchangeName, actionName, cfg.n, cfg.t)
	if err != nil {
		return Stack{}, err
	}
	name := exchangeName + "+" + actionName
	if info, ok := registry.StackFor(exchangeName, actionName); ok {
		name = info.Name
	}
	return Stack{Name: name, Exchange: ex, Action: act, N: cfg.n, T: cfg.t, horizon: cfg.horizon}, nil
}

// MustStack is NewStack for call sites where the name and configuration
// are compile-time constants and an error is a bug.
func MustStack(name string, opts ...Option) Stack {
	s, err := NewStack(name, opts...)
	if err != nil {
		panic("core: " + err.Error())
	}
	return s
}

// StackNames lists the registered stack names, sorted.
func StackNames() []string { return registry.StackNames() }

// Horizon is the number of rounds the stack executes for: the WithHorizon
// override if one was given, else t+2 — the bound after which every EBA
// stack has decided (Proposition 6.1).
func (s Stack) Horizon() int {
	if s.horizon > 0 {
		return s.horizon
	}
	return s.T + 2
}

// Config is the engine configuration for running the stack on a scenario.
func (s Stack) Config(pat *model.Pattern, inits []model.Value) engine.Config {
	return engine.Config{
		Exchange: s.Exchange,
		Action:   s.Action,
		Pattern:  pat,
		Inits:    inits,
		Horizon:  s.Horizon(),
	}
}

// Run executes the stack sequentially under the failure pattern with the
// given initial preferences.
func (s Stack) Run(pat *model.Pattern, inits []model.Value) (*engine.Result, error) {
	return engine.Run(s.Config(pat, inits))
}

// RunConcurrent executes the stack with one goroutine per agent; the
// result is identical to Run's.
func (s Stack) RunConcurrent(pat *model.Pattern, inits []model.Value) (*engine.Result, error) {
	return runtime.Run(s.Config(pat, inits))
}

// AtHorizon returns a copy of the stack whose execution horizon is h
// (h <= 0 restores the default t+2). It lets callers that assemble a
// Stack literally — rather than through NewStack — run at a non-default
// horizon; the episteme model checker drives its enumerations through
// this.
func (s Stack) AtHorizon(h int) Stack {
	if h < 0 {
		h = 0
	}
	s.horizon = h
	return s
}

// Scenario is one (pattern, inits) input shared by corresponding runs.
type Scenario struct {
	// Pattern is the failure pattern.
	Pattern *model.Pattern
	// Inits holds the initial preferences, read-only: a source may share
	// one slice among scenarios (source.CrossInits does); executors copy it.
	Inits []model.Value
	// Weight is the number of sweep scenarios this one stands for: 1 for
	// an ordinary enumeration, the orbit size for the representative of a
	// symmetry-quotiented sweep (source.Quotient). Zero means 1, so plain
	// sources need not set it.
	Weight int64
}

// EffectiveWeight is Weight with the zero-means-one default applied.
func (s Scenario) EffectiveWeight() int64 {
	if s.Weight <= 0 {
		return 1
	}
	return s.Weight
}
