// Package action implements the paper's concrete action protocols:
//
//   - Min: P_min (Section 6) — decide 0 on an initial 0 or on hearing a
//     fresh 0-decision; otherwise decide 1 at time t+1. Optimal with
//     respect to the minimal exchange (Corollary 6.7).
//   - Basic: P_basic (Section 6) — as P_min, but additionally decide 1 as
//     soon as #1 > n − time or on hearing a fresh 1-decision. Optimal with
//     respect to the basic exchange (Corollary 6.7).
//   - Opt: P_opt (Section 7 / A.2.7) — the polynomial-time implementation
//     of the knowledge-based program P1 over the full-information
//     exchange, optimal with respect to full information (Corollary 7.8).
//   - Naive: the introduction's impossible protocol — decide 0 as soon as
//     you learn *in any way* that some agent held an initial 0. Safe under
//     crash failures, violates Agreement under omission failures; kept as
//     an executable counterexample.
//
// P_min and Naive work on any exchange state; P_basic requires the basic
// exchange; P_opt requires the full-information exchange.
package action

import (
	"fmt"

	"repro/internal/exchange"
	"repro/internal/graph"
	"repro/internal/model"
)

// Min is the action protocol P_min, parameterized by the failure bound t.
type Min struct {
	t int
}

// NewMin returns P_min for failure bound t.
func NewMin(t int) *Min {
	if t < 0 {
		panic("action: NewMin with negative t")
	}
	return &Min{t: t}
}

// Name returns "Pmin".
func (p *Min) Name() string { return "Pmin" }

// Act implements the program of Theorem 6.5.
func (p *Min) Act(_ model.AgentID, s model.State) model.Action {
	switch {
	case s.Decided().IsSet():
		return model.Noop
	case s.Init() == model.Zero || s.JustDecided() == model.Zero:
		return model.Decide0
	case s.Time() == p.t+1:
		return model.Decide1
	default:
		return model.Noop
	}
}

// Basic is the action protocol P_basic, parameterized by the number of
// agents n (its decide-1 test compares #1 against n − time).
type Basic struct {
	n int
}

// NewBasic returns P_basic for n agents.
func NewBasic(n int) *Basic {
	if n <= 0 {
		panic("action: NewBasic with n <= 0")
	}
	return &Basic{n: n}
}

// Name returns "Pbasic".
func (p *Basic) Name() string { return "Pbasic" }

// Act implements the program of Theorem 6.6. It requires a basic-exchange
// state (it reads the #1 counter).
func (p *Basic) Act(_ model.AgentID, s model.State) model.Action {
	st, ok := s.(exchange.BasicState)
	if !ok {
		panic(fmt.Sprintf("action: Pbasic needs a Basic exchange state, got %T", s))
	}
	switch {
	case st.Decided().IsSet():
		return model.Noop
	case st.Init() == model.Zero || st.JustDecided() == model.Zero:
		return model.Decide0
	case st.NumOnes() > p.n-st.Time() || st.JustDecided() == model.One:
		return model.Decide1
	default:
		return model.Noop
	}
}

// Opt is the action protocol P_opt: the polynomial-time implementation of
// the knowledge-based program P1 over the full-information exchange.
type Opt struct {
	t int
}

// NewOpt returns P_opt for failure bound t.
func NewOpt(t int) *Opt {
	if t < 0 {
		panic("action: NewOpt with negative t")
	}
	return &Opt{t: t}
}

// Name returns "Popt".
func (p *Opt) Name() string { return "Popt" }

// Act evaluates the program of Proposition 7.9 on the agent's
// communication graph. It requires a full-information exchange state.
func (p *Opt) Act(_ model.AgentID, s model.State) model.Action {
	st, ok := s.(*exchange.FIPState)
	if !ok {
		panic(fmt.Sprintf("action: Popt needs a FIP exchange state, got %T", s))
	}
	if st.Decided().IsSet() {
		return model.Noop
	}
	r := graph.AcquireRef(p.t, st.Graph())
	a := r.OwnerAction()
	r.Release()
	return a
}

// OptNoCK is the ablated full-information protocol: P_opt without the two
// common-knowledge guards, i.e. an implementation of the knowledge-based
// program P0 over the full-information exchange. It is correct
// (Proposition 6.1 applies to every EBA context) but not optimal: in
// Example 7.1 it waits until the hidden-chain argument clears instead of
// exploiting common knowledge of the faulty set. Experiment E15 measures
// the gap.
type OptNoCK struct {
	t int
}

// NewOptNoCK returns the ablated protocol for failure bound t.
func NewOptNoCK(t int) *OptNoCK {
	if t < 0 {
		panic("action: NewOptNoCK with negative t")
	}
	return &OptNoCK{t: t}
}

// Name returns "Popt-nock".
func (p *OptNoCK) Name() string { return "Popt-nock" }

// Act evaluates the ablated program on the agent's communication graph.
func (p *OptNoCK) Act(_ model.AgentID, s model.State) model.Action {
	st, ok := s.(*exchange.FIPState)
	if !ok {
		panic(fmt.Sprintf("action: Popt-nock needs a FIP exchange state, got %T", s))
	}
	if st.Decided().IsSet() {
		return model.Noop
	}
	r := graph.AcquireRefNoCK(p.t, st.Graph())
	a := r.OwnerAction()
	r.Release()
	return a
}

// Naive is the introduction's 0-biased protocol: decide 0 as soon as the
// agent's communication graph records an initial preference of 0 for some
// agent, however late and by whatever chain that news arrives, and decide
// 1 at time t+1 otherwise. Under crash failures news of a 0 that reaches
// one nonfaulty agent reaches all of them a round later, so Naive is safe;
// under omission failures the adversary of the introduction's run r′
// makes two nonfaulty agents disagree (see internal/experiments, E6's
// naive rows).
type Naive struct {
	t int
}

// NewNaive returns the counterexample protocol for failure bound t.
func NewNaive(t int) *Naive {
	if t < 0 {
		panic("action: NewNaive with negative t")
	}
	return &Naive{t: t}
}

// Name returns "Pnaive".
func (p *Naive) Name() string { return "Pnaive" }

// Act decides 0 eagerly on any evidence of an initial 0. It requires a
// FIP exchange state (it reads the graph's initial preferences).
func (p *Naive) Act(_ model.AgentID, s model.State) model.Action {
	st, ok := s.(*exchange.FIPState)
	if !ok {
		panic(fmt.Sprintf("action: Pnaive needs a FIP exchange state, got %T", s))
	}
	if st.Decided().IsSet() {
		return model.Noop
	}
	g := st.Graph()
	for j := 0; j < g.N(); j++ {
		if g.Pref(model.AgentID(j)) == model.Zero {
			return model.Decide0
		}
	}
	if st.Time() == p.t+1 {
		return model.Decide1
	}
	return model.Noop
}

// Interface compliance.
var (
	_ model.ActionProtocol = (*Min)(nil)
	_ model.ActionProtocol = (*Basic)(nil)
	_ model.ActionProtocol = (*Opt)(nil)
	_ model.ActionProtocol = (*OptNoCK)(nil)
	_ model.ActionProtocol = (*Naive)(nil)
)
