package exchange

import (
	"strconv"

	"repro/internal/model"
)

// BasicMsgKind distinguishes the three Ebasic messages.
type BasicMsgKind uint8

// Ebasic message kinds.
const (
	// BasicDecide0 announces a 0 decision (class M0).
	BasicDecide0 BasicMsgKind = iota + 1
	// BasicDecide1 announces a 1 decision (class M1).
	BasicDecide1
	// BasicInit1 is the (init,1) message (class M2).
	BasicInit1
)

// BasicMsg is an Ebasic message.
type BasicMsg struct {
	// Kind selects among the three message forms.
	Kind BasicMsgKind
}

// Announces reports the decision the message carries, None for (init,1).
func (m BasicMsg) Announces() model.Value {
	switch m.Kind {
	case BasicDecide0:
		return model.Zero
	case BasicDecide1:
		return model.One
	default:
		return model.None
	}
}

// Bits is 2: three message kinds need two bits.
func (m BasicMsg) Bits() int { return 2 }

// String renders the message.
func (m BasicMsg) String() string {
	switch m.Kind {
	case BasicDecide0:
		return "decide:0"
	case BasicDecide1:
		return "decide:1"
	default:
		return "(init,1)"
	}
}

// BasicState is the Ebasic local state ⟨time, init, decided, jd, #1⟩.
type BasicState struct {
	time    int
	init    model.Value
	decided model.Value
	jd      model.Value
	numOnes int
}

// Time returns the state's time component.
func (s BasicState) Time() int { return s.time }

// Init returns the agent's initial preference.
func (s BasicState) Init() model.Value { return s.init }

// Decided returns the recorded decision, or None.
func (s BasicState) Decided() model.Value { return s.decided }

// JustDecided returns the paper's jd component.
func (s BasicState) JustDecided() model.Value { return s.jd }

// NumOnes is the paper's #1: how many (init,1) messages arrived in the
// last round (0 once the agent has decided).
func (s BasicState) NumOnes() int { return s.numOnes }

// AppendKey appends the canonical fingerprint of the state.
func (s BasicState) AppendKey(dst []byte) []byte {
	dst = appendMinKey(dst, "basic", s.time, s.init, s.decided, s.jd)
	return strconv.AppendInt(append(dst, ':'), int64(s.numOnes), 10)
}

// Basic is the basic information-exchange protocol Ebasic(n).
type Basic struct {
	n       int
	initial [2]model.State
}

// NewBasic returns Ebasic for n agents.
func NewBasic(n int) *Basic {
	if n <= 0 {
		panic("exchange: NewBasic with n <= 0")
	}
	e := &Basic{n: n}
	// Interned time-0 states (see Min.Initial).
	e.initial[0] = BasicState{init: model.Zero, decided: model.None, jd: model.None}
	e.initial[1] = BasicState{init: model.One, decided: model.None, jd: model.None}
	return e
}

// Name returns "Ebasic".
func (e *Basic) Name() string { return "Ebasic" }

// N is the number of agents.
func (e *Basic) N() int { return e.n }

// Initial returns ⟨0, init, ⊥, ⊥, 0⟩.
func (e *Basic) Initial(_ model.AgentID, init model.Value) model.State {
	if init.IsSet() {
		return e.initial[init]
	}
	return BasicState{init: init, decided: model.None, jd: model.None}
}

// AppendPermuteKey appends an Ebasic key unchanged (model.KeyPermuter).
func (e *Basic) AppendPermuteKey(dst []byte, key []byte, _ []model.AgentID) ([]byte, error) {
	return appendAnonymousKey(dst, key, "basic", 5)
}

// Messages broadcasts the decided bit in a deciding round; an undecided,
// unprompted agent with initial preference 1 broadcasts (init,1);
// otherwise the agent is silent (μ of Ebasic).
func (e *Basic) Messages(_ model.AgentID, s model.State, a model.Action, out []model.Message) []model.Message {
	var msg model.Message
	switch d := a.Decision(); {
	case d == model.Zero:
		msg = BasicMsg{Kind: BasicDecide0}
	case d == model.One:
		msg = BasicMsg{Kind: BasicDecide1}
	default:
		st := s.(BasicState)
		if st.init == model.One && st.decided == model.None && st.jd == model.None {
			msg = BasicMsg{Kind: BasicInit1}
		}
	}
	for j := range out {
		out[j] = msg
	}
	return out
}

// Update advances time, records decisions and jd as in Emin, and sets #1
// to the number of (init,1) messages received this round — unless the
// agent has decided (including this round) or received a decide
// announcement, in which case #1 is 0.
func (e *Basic) Update(_ model.AgentID, s model.State, a model.Action, received []model.Message) model.State {
	st := s.(BasicState)
	st.time++
	if d := a.Decision(); d.IsSet() {
		st.decided = d
	}
	st.jd = announcedValue(received)
	st.numOnes = 0
	if st.decided == model.None && st.jd == model.None {
		for _, m := range received {
			if bm, ok := m.(BasicMsg); ok && bm.Kind == BasicInit1 {
				st.numOnes++
			}
		}
	}
	return st
}
