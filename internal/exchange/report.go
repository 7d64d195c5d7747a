package exchange

import "repro/internal/model"

// ReportMsgKind distinguishes the three Ereport messages.
type ReportMsgKind uint8

// Ereport message kinds.
const (
	// ReportDecide0 announces a 0 decision (class M0).
	ReportDecide0 ReportMsgKind = iota + 1
	// ReportDecide1 announces a 1 decision (class M1).
	ReportDecide1
	// ReportInit0 is the (init,0) report (class M2).
	ReportInit0
)

// ReportMsg is an Ereport message.
type ReportMsg struct {
	// Kind selects among the three message forms.
	Kind ReportMsgKind
}

// Announces reports the decision the message carries, None for (init,0).
func (m ReportMsg) Announces() model.Value {
	switch m.Kind {
	case ReportDecide0:
		return model.Zero
	case ReportDecide1:
		return model.One
	default:
		return model.None
	}
}

// Bits is 2: three message kinds need two bits.
func (m ReportMsg) Bits() int { return 2 }

// String renders the message.
func (m ReportMsg) String() string {
	switch m.Kind {
	case ReportDecide0:
		return "decide:0"
	case ReportDecide1:
		return "decide:1"
	default:
		return "(init,0)"
	}
}

// ReportState is the Ereport local state ⟨time, init, decided, jd, heard0⟩.
// heard0 records whether an (init,0) report has ever arrived; it is what
// makes the introduction's "decide 0 as soon as you hear about a 0"
// protocol expressible — and demonstrably unsafe under omission failures.
type ReportState struct {
	time    int
	init    model.Value
	decided model.Value
	jd      model.Value
	heard0  bool
}

// Time returns the state's time component.
func (s ReportState) Time() int { return s.time }

// Init returns the agent's initial preference.
func (s ReportState) Init() model.Value { return s.init }

// Decided returns the recorded decision, or None.
func (s ReportState) Decided() model.Value { return s.decided }

// JustDecided returns the paper's jd component.
func (s ReportState) JustDecided() model.Value { return s.jd }

// Heard0 reports whether an (init,0) report has ever arrived.
func (s ReportState) Heard0() bool { return s.heard0 }

// Key returns the canonical fingerprint of the state.
func (s ReportState) Key() string {
	k := minKey("report", s.time, s.init, s.decided, s.jd)
	if s.heard0 {
		return k + ":h0"
	}
	return k + ":-"
}

// Report is the Ereport information-exchange protocol: Emin plus a
// persistent (init,0) report broadcast by agents with initial preference 0.
type Report struct {
	n       int
	initial [2]model.State
}

// NewReport returns Ereport for n agents.
func NewReport(n int) *Report {
	if n <= 0 {
		panic("exchange: NewReport with n <= 0")
	}
	e := &Report{n: n}
	// Interned time-0 states (see Min.Initial).
	e.initial[0] = ReportState{init: model.Zero, decided: model.None, jd: model.None}
	e.initial[1] = ReportState{init: model.One, decided: model.None, jd: model.None}
	return e
}

// Name returns "Ereport".
func (e *Report) Name() string { return "Ereport" }

// N is the number of agents.
func (e *Report) N() int { return e.n }

// Initial returns ⟨0, init, ⊥, ⊥, false⟩.
func (e *Report) Initial(_ model.AgentID, init model.Value) model.State {
	if init.IsSet() {
		return e.initial[init]
	}
	return ReportState{init: init, decided: model.None, jd: model.None}
}

// Messages broadcasts the decided bit in a deciding round; otherwise an
// agent whose initial preference is 0 broadcasts (init,0) — even after it
// has decided, which is exactly the late-report behavior the introduction
// exploits.
func (e *Report) Messages(_ model.AgentID, s model.State, a model.Action, out []model.Message) []model.Message {
	var msg model.Message
	switch d := a.Decision(); {
	case d == model.Zero:
		msg = ReportMsg{Kind: ReportDecide0}
	case d == model.One:
		msg = ReportMsg{Kind: ReportDecide1}
	default:
		if s.(ReportState).init == model.Zero {
			msg = ReportMsg{Kind: ReportInit0}
		}
	}
	for j := range out {
		out[j] = msg
	}
	return out
}

// Update advances time, records decisions and jd as in Emin, and latches
// heard0 when an (init,0) report arrives.
func (e *Report) Update(_ model.AgentID, s model.State, a model.Action, received []model.Message) model.State {
	st := s.(ReportState)
	st.time++
	if d := a.Decision(); d.IsSet() {
		st.decided = d
	}
	st.jd = announcedValue(received)
	for _, m := range received {
		if rm, ok := m.(ReportMsg); ok && rm.Kind == ReportInit0 {
			st.heard0 = true
		}
	}
	return st
}
