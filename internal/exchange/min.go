package exchange

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/model"
)

// MinMsg is an Emin message: the single bit an agent broadcasts in the
// round it decides.
type MinMsg struct {
	// V is the decided value.
	V model.Value
}

// Announces reports the decision the message carries (class M0 or M1).
func (m MinMsg) Announces() model.Value { return m.V }

// Bits is 1: the message is a single bit.
func (m MinMsg) Bits() int { return 1 }

// String renders the message.
func (m MinMsg) String() string { return "decide:" + m.V.String() }

// MinState is the Emin local state ⟨time, init, decided, jd⟩.
type MinState struct {
	time    int
	init    model.Value
	decided model.Value
	jd      model.Value
}

// Time returns the state's time component.
func (s MinState) Time() int { return s.time }

// Init returns the agent's initial preference.
func (s MinState) Init() model.Value { return s.init }

// Decided returns the recorded decision, or None.
func (s MinState) Decided() model.Value { return s.decided }

// JustDecided returns the paper's jd component.
func (s MinState) JustDecided() model.Value { return s.jd }

// AppendKey appends the canonical fingerprint of the state.
func (s MinState) AppendKey(dst []byte) []byte {
	return appendMinKey(dst, "min", s.time, s.init, s.decided, s.jd)
}

// appendMinKey appends a canonical key for the simple tuple states:
// tag:time:v1:v2:….
func appendMinKey(dst []byte, tag string, time int, vs ...model.Value) []byte {
	dst = strconv.AppendInt(append(append(dst, tag...), ':'), int64(time), 10)
	for _, v := range vs {
		dst = append(append(dst, ':'), v.String()...)
	}
	return dst
}

// appendAnonymousKey is AppendPermuteKey for appendMinKey's tuples, which
// name no agent: the key itself, once its tag and field count show it is
// one.
func appendAnonymousKey(dst, key []byte, tag string, fields int) ([]byte, error) {
	if !bytes.HasPrefix(key, []byte(tag+":")) || bytes.Count(key, []byte(":")) != fields {
		return dst, fmt.Errorf("exchange: %q is not a well-formed %s state key", key, tag)
	}
	return append(dst, key...), nil
}

// Min is the minimal information-exchange protocol Emin(n).
type Min struct {
	n       int
	initial [2]model.State
}

// NewMin returns Emin for n agents.
func NewMin(n int) *Min {
	if n <= 0 {
		panic("exchange: NewMin with n <= 0")
	}
	e := &Min{n: n}
	// The two possible time-0 states, interned so Initial never boxes on
	// the sweep hot path (states are immutable values).
	e.initial[0] = MinState{init: model.Zero, decided: model.None, jd: model.None}
	e.initial[1] = MinState{init: model.One, decided: model.None, jd: model.None}
	return e
}

// Name returns "Emin".
func (e *Min) Name() string { return "Emin" }

// N is the number of agents.
func (e *Min) N() int { return e.n }

// Initial returns ⟨0, init, ⊥, ⊥⟩.
func (e *Min) Initial(_ model.AgentID, init model.Value) model.State {
	if init.IsSet() {
		return e.initial[init]
	}
	return MinState{init: init, decided: model.None, jd: model.None}
}

// AppendPermuteKey appends an Emin key unchanged (model.KeyPermuter).
func (e *Min) AppendPermuteKey(dst []byte, key []byte, _ []model.AgentID) ([]byte, error) {
	return appendAnonymousKey(dst, key, "min", 4)
}

// Messages broadcasts the decided bit in a deciding round and stays silent
// otherwise (μ of Emin).
func (e *Min) Messages(_ model.AgentID, _ model.State, a model.Action, out []model.Message) []model.Message {
	var msg model.Message
	if d := a.Decision(); d.IsSet() {
		msg = MinMsg{V: d}
	}
	for j := range out {
		out[j] = msg
	}
	return out
}

// Update advances time, records the decision taken this round, and sets jd
// from received decide announcements, preferring 0 (the program tests the
// 0 branch first).
func (e *Min) Update(_ model.AgentID, s model.State, a model.Action, received []model.Message) model.State {
	st := s.(MinState)
	st.time++
	if d := a.Decision(); d.IsSet() {
		st.decided = d
	}
	st.jd = announcedValue(received)
	return st
}

// announcedValue extracts the jd observation from a round's messages:
// Zero if any message announces 0, else One if any announces 1, else None.
func announcedValue(received []model.Message) model.Value {
	jd := model.None
	for _, m := range received {
		if m == nil {
			continue
		}
		switch m.Announces() {
		case model.Zero:
			return model.Zero
		case model.One:
			jd = model.One
		}
	}
	return jd
}
