package engine

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/model"
)

// stubState is a minimal EBA-context local state for engine tests.
type stubState struct {
	time    int
	init    model.Value
	decided model.Value
	jd      model.Value
}

func (s stubState) Time() int                { return s.time }
func (s stubState) Init() model.Value        { return s.init }
func (s stubState) Decided() model.Value     { return s.decided }
func (s stubState) JustDecided() model.Value { return s.jd }
func (s stubState) AppendKey(dst []byte) []byte {
	dst = append(dst, "stub:"...)
	for _, v := range []int{s.time, int(s.init), int(s.decided), int(s.jd)} {
		dst = append(dst, byte('a'+v+1))
	}
	return dst
}

// stubMsg announces a decision; it is 1 bit on the wire.
type stubMsg struct{ v model.Value }

func (m stubMsg) Announces() model.Value { return m.v }
func (m stubMsg) Bits() int              { return 1 }
func (m stubMsg) String() string         { return m.v.String() }

// stubExchange broadcasts a 1-bit announcement when an agent decides and
// stays silent otherwise (a miniature Emin).
type stubExchange struct{ n int }

func (e stubExchange) Name() string { return "Estub" }
func (e stubExchange) N() int       { return e.n }
func (e stubExchange) Initial(_ model.AgentID, init model.Value) model.State {
	return stubState{init: init, decided: model.None, jd: model.None}
}
func (e stubExchange) Messages(_ model.AgentID, _ model.State, a model.Action, out []model.Message) []model.Message {
	var msg model.Message
	if d := a.Decision(); d.IsSet() {
		msg = stubMsg{v: d}
	}
	for j := range out {
		out[j] = msg
	}
	return out
}
func (e stubExchange) Update(_ model.AgentID, s model.State, a model.Action, recv []model.Message) model.State {
	st := s.(stubState)
	st.time++
	if d := a.Decision(); d.IsSet() && st.decided == model.None {
		st.decided = d
	}
	st.jd = model.None
	for _, m := range recv {
		if m == nil {
			continue
		}
		if v := m.Announces(); v.IsSet() && (st.jd == model.None || v == model.Zero) {
			st.jd = v
		}
	}
	return st
}

// stubAction decides the agent's own initial value at time 1.
type stubAction struct{}

func (stubAction) Name() string { return "Pstub" }
func (stubAction) Act(_ model.AgentID, s model.State) model.Action {
	if s.Decided().IsSet() {
		return model.Noop
	}
	if s.Time() == 1 {
		return model.Decide(s.Init())
	}
	return model.Noop
}

func stubConfig(n, horizon int, inits []model.Value, p *model.Pattern) Config {
	return Config{
		Exchange: stubExchange{n: n},
		Action:   stubAction{},
		Pattern:  p,
		Inits:    inits,
		Horizon:  horizon,
	}
}

func TestRunValidation(t *testing.T) {
	p := adversary.FailureFree(3, 3)
	inits := adversary.UniformInits(3, model.One)

	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := stubConfig(3, 3, inits[:2], p)
	if _, err := Run(cfg); err == nil {
		t.Error("short init vector accepted")
	}
	cfg = stubConfig(3, 3, []model.Value{model.One, model.None, model.One}, p)
	if _, err := Run(cfg); err == nil {
		t.Error("unset init accepted")
	}
	cfg = stubConfig(3, 3, inits, adversary.FailureFree(4, 3))
	if _, err := Run(cfg); err == nil {
		t.Error("pattern/exchange size mismatch accepted")
	}
}

func TestRunTraceShape(t *testing.T) {
	p := adversary.FailureFree(3, 4)
	res := MustRun(stubConfig(3, 4, adversary.UniformInits(3, model.One), p))
	if len(res.States) != 5 {
		t.Fatalf("len(States) = %d, want 5", len(res.States))
	}
	if len(res.Actions) != 4 {
		t.Fatalf("len(Actions) = %d, want 4", len(res.Actions))
	}
	for m, row := range res.States {
		for i, s := range row {
			if s.Time() != m {
				t.Errorf("States[%d][%d].Time() = %d", m, i, s.Time())
			}
		}
	}
}

func TestRunLedger(t *testing.T) {
	p := adversary.FailureFree(3, 3)
	inits := []model.Value{model.Zero, model.One, model.One}
	res := MustRun(stubConfig(3, 3, inits, p))
	// stubAction decides at time 1, i.e. round 2.
	for i := 0; i < 3; i++ {
		if res.Round(model.AgentID(i)) != 2 {
			t.Errorf("agent %d decided in round %d, want 2", i, res.Round(model.AgentID(i)))
		}
		if res.Decided(model.AgentID(i)) != inits[i] {
			t.Errorf("agent %d decided %v, want %v", i, res.Decided(model.AgentID(i)), inits[i])
		}
	}
	if !res.AllNonfaultyDecided() {
		t.Error("AllNonfaultyDecided = false")
	}
	if res.MaxDecisionRound(false) != 2 || res.MaxDecisionRound(true) != 2 {
		t.Error("MaxDecisionRound != 2")
	}
}

func TestRunStatsCountsSentAndDelivered(t *testing.T) {
	// Agent 0 is silent-faulty: its announcements are sent but not delivered.
	p := adversary.Silent(3, 3, 0)
	res := MustRun(stubConfig(3, 3, adversary.UniformInits(3, model.One), p))
	// Each agent decides at time 1 and broadcasts 3 one-bit messages.
	if res.Stats.MessagesSent != 9 {
		t.Errorf("MessagesSent = %d, want 9", res.Stats.MessagesSent)
	}
	if res.Stats.BitsSent != 9 {
		t.Errorf("BitsSent = %d, want 9", res.Stats.BitsSent)
	}
	// Agent 0's messages to agents 1,2 are dropped; its self-message and
	// the other agents' messages arrive: 9 - 2 = 7.
	if res.Stats.MessagesDelivered != 7 {
		t.Errorf("MessagesDelivered = %d, want 7", res.Stats.MessagesDelivered)
	}
	if res.Stats.BitsDelivered != 7 {
		t.Errorf("BitsDelivered = %d, want 7", res.Stats.BitsDelivered)
	}
}

func TestRunDeterminism(t *testing.T) {
	p := adversary.Silent(4, 3, 2)
	inits := []model.Value{model.Zero, model.One, model.One, model.Zero}
	a := MustRun(stubConfig(4, 3, inits, p))
	b := MustRun(stubConfig(4, 3, inits, p))
	for m := range a.States {
		for i := range a.States[m] {
			if string(a.States[m][i].AppendKey(nil)) != string(b.States[m][i].AppendKey(nil)) {
				t.Fatalf("states differ at time %d agent %d", m, i)
			}
		}
	}
	if a.Stats != b.Stats {
		t.Errorf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestRunHorizonDefaultsToPattern(t *testing.T) {
	p := adversary.FailureFree(2, 5)
	cfg := stubConfig(2, 0, adversary.UniformInits(2, model.Zero), p)
	res := MustRun(cfg)
	if res.Horizon != 5 {
		t.Errorf("Horizon = %d, want 5 (pattern horizon)", res.Horizon)
	}
}

func TestMustRunPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRun did not panic on invalid config")
		}
	}()
	MustRun(Config{})
}

func TestJustDecidedPropagation(t *testing.T) {
	// With a failure-free pattern, agents see each other's announcements:
	// after the deciding round (time 2), jd must be set.
	p := adversary.FailureFree(3, 3)
	inits := []model.Value{model.Zero, model.One, model.One}
	res := MustRun(stubConfig(3, 3, inits, p))
	s := res.States[2][1].(stubState)
	if s.jd != model.Zero {
		t.Errorf("agent 1 jd at time 2 = %v, want 0 (prefers zero announcements)", s.jd)
	}
}
