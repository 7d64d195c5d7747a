package exchange

import (
	"runtime/debug"
	"testing"

	"repro/internal/model"
)

// send is μ into a clean row.
func send(e model.Exchange, i model.AgentID, s model.State, a model.Action) []model.Message {
	return e.Messages(i, s, a, make([]model.Message, e.N()))
}

func TestMinStateAccessors(t *testing.T) {
	e := NewMin(3)
	s := e.Initial(0, model.One).(MinState)
	if s.Time() != 0 || s.Init() != model.One || s.Decided() != model.None || s.JustDecided() != model.None {
		t.Errorf("unexpected initial state %+v", s)
	}
}

func TestMinMessagesOnlyOnDecide(t *testing.T) {
	e := NewMin(3)
	s := e.Initial(0, model.One)
	for _, m := range send(e, 0, s, model.Noop) {
		if m != nil {
			t.Error("noop round sent a message")
		}
	}
	out := send(e, 0, s, model.Decide1)
	for j, m := range out {
		if m == nil {
			t.Fatalf("decide round sent no message to %d", j)
		}
		if m.Announces() != model.One || m.Bits() != 1 {
			t.Errorf("message %v: announces %v bits %d", m, m.Announces(), m.Bits())
		}
	}
}

func TestMinUpdateJDPrefersZero(t *testing.T) {
	e := NewMin(3)
	s := e.Initial(0, model.One)
	recv := []model.Message{MinMsg{V: model.One}, MinMsg{V: model.Zero}, nil}
	ns := e.Update(0, s, model.Noop, recv).(MinState)
	if ns.Time() != 1 {
		t.Errorf("time = %d, want 1", ns.Time())
	}
	if ns.JustDecided() != model.Zero {
		t.Errorf("jd = %v, want 0 (zero wins)", ns.JustDecided())
	}
}

func TestMinUpdateRecordsDecision(t *testing.T) {
	e := NewMin(2)
	s := e.Initial(0, model.Zero)
	ns := e.Update(0, s, model.Decide0, []model.Message{nil, nil}).(MinState)
	if ns.Decided() != model.Zero {
		t.Errorf("decided = %v, want 0", ns.Decided())
	}
}

func TestMinKeysDistinguishStates(t *testing.T) {
	e := NewMin(2)
	a := e.Initial(0, model.Zero)
	b := e.Initial(0, model.One)
	if string(a.AppendKey(nil)) == string(b.AppendKey(nil)) {
		t.Error("different inits, same key")
	}
	c := e.Update(0, a, model.Noop, []model.Message{nil, nil})
	if string(a.AppendKey(nil)) == string(c.AppendKey(nil)) {
		t.Error("different times, same key")
	}
}

func TestBasicInit1Broadcast(t *testing.T) {
	e := NewBasic(3)
	s := e.Initial(0, model.One)
	out := send(e, 0, s, model.Noop)
	for _, m := range out {
		bm, ok := m.(BasicMsg)
		if !ok || bm.Kind != BasicInit1 {
			t.Fatalf("expected (init,1) broadcast, got %v", m)
		}
		if bm.Announces() != model.None {
			t.Error("(init,1) should announce nothing")
		}
		if bm.Bits() != 2 {
			t.Errorf("bits = %d, want 2", bm.Bits())
		}
	}
	// An init-0 agent stays silent on noop.
	s0 := e.Initial(0, model.Zero)
	for _, m := range send(e, 0, s0, model.Noop) {
		if m != nil {
			t.Error("init-0 agent broadcast on noop")
		}
	}
}

func TestBasicNoInit1AfterDecisionOrJD(t *testing.T) {
	e := NewBasic(2)
	s := e.Initial(0, model.One)
	// After deciding, noop rounds are silent.
	s1 := e.Update(0, s, model.Decide1, []model.Message{nil, nil})
	for _, m := range send(e, 0, s1, model.Noop) {
		if m != nil {
			t.Error("decided agent broadcast (init,1)")
		}
	}
	// After observing a decision (jd set), noop rounds are silent.
	s2 := e.Update(0, s, model.Noop, []model.Message{BasicMsg{Kind: BasicDecide1}, nil})
	if s2.(BasicState).JustDecided() != model.One {
		t.Fatal("jd not recorded")
	}
	for _, m := range send(e, 0, s2, model.Noop) {
		if m != nil {
			t.Error("agent with jd set broadcast (init,1)")
		}
	}
}

func TestBasicNumOnesCounting(t *testing.T) {
	e := NewBasic(4)
	s := e.Initial(0, model.One)
	recv := []model.Message{
		BasicMsg{Kind: BasicInit1},
		BasicMsg{Kind: BasicInit1},
		nil,
		BasicMsg{Kind: BasicInit1},
	}
	ns := e.Update(0, s, model.Noop, recv).(BasicState)
	if ns.NumOnes() != 3 {
		t.Errorf("#1 = %d, want 3", ns.NumOnes())
	}
	// A decide announcement zeroes the counter.
	recv[0] = BasicMsg{Kind: BasicDecide0}
	ns = e.Update(0, s, model.Noop, recv).(BasicState)
	if ns.NumOnes() != 0 {
		t.Errorf("#1 = %d after decide announcement, want 0", ns.NumOnes())
	}
	// Deciding this round zeroes the counter.
	recv[0] = BasicMsg{Kind: BasicInit1}
	ns = e.Update(0, s, model.Decide1, recv).(BasicState)
	if ns.NumOnes() != 0 {
		t.Errorf("#1 = %d after own decision, want 0", ns.NumOnes())
	}
}

func TestBasicKeyIncludesNumOnes(t *testing.T) {
	e := NewBasic(3)
	s := e.Initial(0, model.One)
	a := e.Update(0, s, model.Noop, []model.Message{BasicMsg{Kind: BasicInit1}, nil, nil})
	b := e.Update(0, s, model.Noop, []model.Message{nil, nil, nil})
	if string(a.AppendKey(nil)) == string(b.AppendKey(nil)) {
		t.Error("different #1, same key")
	}
}

// TestAnonymousPermuteKey: Emin and Ebasic keys name no agent, so
// AppendPermuteKey appends every key of the exchange unchanged under any
// relabeling, and refuses what is not a key of that exchange — the other
// tuple exchange's, a truncated one, a full-information one — appending
// nothing.
func TestAnonymousPermuteKey(t *testing.T) {
	perm := []model.AgentID{2, 0, 1}
	min, basic := NewMin(3), NewBasic(3)
	s := basic.Update(0, basic.Initial(0, model.One), model.Noop,
		[]model.Message{BasicMsg{Kind: BasicInit1}, nil, BasicMsg{Kind: BasicInit1}})
	for _, tc := range []struct {
		ex   model.KeyPermuter
		good []string
		bad  []string
	}{
		{min, []string{string(min.Initial(1, model.Zero).AppendKey(nil)), "min:3:1:0:⊥"},
			[]string{"", "min", "min:", "min:1:0:⊥", "basic:0:1:⊥:⊥:0", "minimal:0:1:⊥:⊥", string(NewFIP(3).Initial(0, model.One).AppendKey(nil))}},
		{basic, []string{string(s.AppendKey(nil)), string(basic.Initial(2, model.Zero).AppendKey(nil))},
			[]string{"basic:0:1:⊥:⊥", "min:0:1:⊥:⊥", "basics:0:1:⊥:⊥:0", string(NewFIP(3).Initial(0, model.One).AppendKey(nil))}},
	} {
		for _, key := range tc.good {
			if got, err := tc.ex.AppendPermuteKey([]byte("kept"), []byte(key), perm); err != nil || string(got) != "kept"+key {
				t.Errorf("%T.AppendPermuteKey(%q) = (%q, %v), want the key appended unchanged", tc.ex, key, got, err)
			}
		}
		for _, key := range tc.bad {
			if got, err := tc.ex.AppendPermuteKey([]byte("kept"), []byte(key), perm); err == nil || string(got) != "kept" {
				t.Errorf("%T.AppendPermuteKey(%q) = (%q, %v), want an error and nothing appended", tc.ex, key, got, err)
			}
		}
	}
}

func TestMessageStrings(t *testing.T) {
	cases := []struct {
		msg  model.Message
		want string
	}{
		{MinMsg{V: model.Zero}, "decide:0"},
		{BasicMsg{Kind: BasicInit1}, "(init,1)"},
		{BasicMsg{Kind: BasicDecide0}, "decide:0"},
		{BasicMsg{Kind: BasicDecide1}, "decide:1"},
	}
	for _, c := range cases {
		if got := c.msg.String(); got != c.want {
			t.Errorf("%T.String() = %q, want %q", c.msg, got, c.want)
		}
	}
}

func TestFIPInitialState(t *testing.T) {
	e := NewFIP(3)
	s := e.Initial(1, model.One).(*FIPState)
	if s.Time() != 0 || s.Init() != model.One {
		t.Errorf("unexpected initial state %+v", s)
	}
	if s.Graph().Pref(1) != model.One {
		t.Error("own preference not recorded in graph")
	}
	if s.Graph().Pref(0) != model.None {
		t.Error("other preferences should be unknown")
	}
}

func TestFIPBroadcastsEveryRound(t *testing.T) {
	e := NewFIP(2)
	s := e.Initial(0, model.Zero)
	out := send(e, 0, s, model.Noop)
	for _, m := range out {
		fm, ok := m.(FIPMsg)
		if !ok {
			t.Fatalf("expected FIPMsg, got %T", m)
		}
		if fm.Announces() != model.None {
			t.Error("noop round should announce nothing")
		}
	}
	out = send(e, 0, s, model.Decide0)
	if out[1].Announces() != model.Zero {
		t.Error("decide round should announce 0")
	}
}

func TestFIPUpdateRecordsDeliveries(t *testing.T) {
	e := NewFIP(3)
	s0 := e.Initial(0, model.One).(*FIPState)
	s1 := e.Initial(1, model.Zero).(*FIPState)
	// Agent 0 receives from itself and agent 1; agent 2 silent.
	recv := []model.Message{
		FIPMsg{G: s0.Graph()},
		FIPMsg{G: s1.Graph()},
		nil,
	}
	ns := e.Update(0, s0, model.Noop, recv).(*FIPState)
	g := ns.Graph()
	if g.M() != 1 || ns.Time() != 1 {
		t.Fatalf("time/m not advanced: %d/%d", ns.Time(), g.M())
	}
	if g.Edge(0, 1, 0) != 2 { // graph.Sent
		t.Error("delivery from 1 not recorded")
	}
	if g.Edge(0, 2, 0) != 1 { // graph.NotSent
		t.Error("silence of 2 not recorded")
	}
	if g.Edge(0, 0, 0) != 2 {
		t.Error("self edge should always be Sent")
	}
	if g.Pref(1) != model.Zero {
		t.Error("merged preference from 1 lost")
	}
}

func TestFIPSelfOmissionInvisible(t *testing.T) {
	// Footnote 3: dropping one's own message changes nothing. The self
	// in-edge is labeled Sent whether or not the engine delivered it.
	e := NewFIP(2)
	s := e.Initial(0, model.One).(*FIPState)
	other := e.Initial(1, model.One).(*FIPState)
	withSelf := e.Update(0, s, model.Noop,
		[]model.Message{FIPMsg{G: s.Graph()}, FIPMsg{G: other.Graph()}})
	withoutSelf := e.Update(0, s, model.Noop,
		[]model.Message{nil, FIPMsg{G: other.Graph()}})
	if string(withSelf.AppendKey(nil)) != string(withoutSelf.AppendKey(nil)) {
		t.Error("self-omission changed the local state")
	}
}

func TestFIPKeyExcludesDecided(t *testing.T) {
	// Section 7's non-standard context: decided/jd are cached but not part
	// of the knowledge fingerprint.
	e := NewFIP(2)
	s := e.Initial(0, model.One)
	recv := []model.Message{FIPMsg{G: s.(*FIPState).Graph()}, nil}
	a := e.Update(0, s, model.Noop, recv)
	b := e.Update(0, s, model.Decide1, recv)
	if a.(*FIPState).Decided() == b.(*FIPState).Decided() {
		t.Fatal("cached decided should differ")
	}
	if string(a.AppendKey(nil)) != string(b.AppendKey(nil)) {
		t.Error("decided leaked into the FIP state key")
	}
}

// fipRound runs one synchronous Efip round from states, agent i hearing
// from agent j unless drop(j, i), and returns the next states with what
// each agent received.
func fipRound(e *FIP, states []model.State, drop func(j, i int) bool) ([]model.State, [][]model.Message) {
	n := len(states)
	outboxes := make([][]model.Message, n)
	for j := range states {
		outboxes[j] = send(e, model.AgentID(j), states[j], model.Noop)
	}
	next := make([]model.State, n)
	recvs := make([][]model.Message, n)
	for i := range states {
		recvs[i] = make([]model.Message, n)
		for j := range recvs[i] {
			if !drop(j, i) {
				recvs[i][j] = outboxes[j][i]
			}
		}
		next[i] = e.Update(model.AgentID(i), states[i], model.Noop, recvs[i])
	}
	return next, recvs
}

// fipStates returns the n=5 Efip states after two rounds in which agent 4
// drops its messages to agents 0 and 1.
func fipStates() (*FIP, []model.State) {
	e := NewFIP(5)
	states := make([]model.State, 5)
	for i := range states {
		states[i] = e.Initial(model.AgentID(i), model.Value(i%2))
	}
	for round := 0; round < 2; round++ {
		states, _ = fipRound(e, states, func(j, i int) bool { return j == 4 && i < 2 })
	}
	return e, states
}

// TestFIPUpdateAllocs pins an Update at two allocations: the new state,
// which holds its graph by value, and the graph's label slab.
func TestFIPUpdateAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumentation allocates on its own")
			}
		}
	}
	e, states := fipStates()
	recv := make([]model.Message, e.N())
	for j := range recv {
		if j != 3 {
			recv[j] = send(e, model.AgentID(j), states[j], model.Noop)[0]
		}
	}
	if got := testing.AllocsPerRun(100, func() { e.Update(0, states[0], model.Decide1, recv) }); got != 2 {
		t.Errorf("FIP.Update makes %.0f allocations, want 2", got)
	}
}

// TestFIPUpdateLeavesReceivedGraphs checks that a recipient's Update
// changes no graph it received: a message points into its sender's
// state, which every other recipient reads too.
func TestFIPUpdateLeavesReceivedGraphs(t *testing.T) {
	e, states := fipStates()
	keys := make([]string, len(states))
	for j := range states {
		keys[j] = string(states[j].AppendKey(nil))
	}
	_, recvs := fipRound(e, states, func(j, i int) bool { return (i+j)%3 == 0 && i != j })
	for i, recv := range recvs {
		for j, m := range recv {
			if m == nil {
				continue
			}
			if m.(FIPMsg).G != states[j].(*FIPState).Graph() {
				t.Fatalf("agent %d's message to %d does not point into its state", j, i)
			}
			if got := string(m.(FIPMsg).G.AppendKey(nil)); got != keys[j] {
				t.Fatalf("agent %d's graph, received by %d, reads %s after the round, %s before", j, i, got, keys[j])
			}
		}
	}
}

// TestMessagesOverwriteDirtyRow (TestBufferedPathMatchesPlain while μ
// had an allocating method and a row-filling one to compare) drives every
// built-in exchange through a few rounds and checks the row contract of
// model.Exchange: μ into a dirty row — stale garbage first, then whatever
// the previous call left — yields the same messages as μ into a clean one.
func TestMessagesOverwriteDirtyRow(t *testing.T) {
	exchanges := []model.Exchange{NewMin(3), NewBasic(3), NewFIP(3)}
	inits := []model.Value{model.One, model.Zero, model.One}
	acts := []model.Action{model.Noop, model.Decide0, model.Decide1}
	for _, ex := range exchanges {
		states := make([]model.State, 3)
		for i := range states {
			states[i] = ex.Initial(model.AgentID(i), inits[i])
		}
		out := make([]model.Message, 3)
		for i := range out {
			out[i] = MinMsg{V: model.One} // stale garbage μ must clear
		}
		for round := 0; round < 3; round++ {
			// Snapshot the synchronized round: all sends happen from the
			// round's start states.
			outboxes := make([][]model.Message, 3)
			for i := range states {
				a := acts[(i+round)%len(acts)]
				outboxes[i] = send(ex, model.AgentID(i), states[i], a)
				got := ex.Messages(model.AgentID(i), states[i], a, out)
				for j := range outboxes[i] {
					if (outboxes[i][j] == nil) != (got[j] == nil) {
						t.Fatalf("%s: entry %d nil-ness differs between a dirty and a clean row", ex.Name(), j)
					}
					if outboxes[i][j] != nil && outboxes[i][j].String() != got[j].String() {
						t.Fatalf("%s: entry %d = %v in a dirty row, %v in a clean one", ex.Name(), j, got[j], outboxes[i][j])
					}
				}
			}
			next := make([]model.State, 3)
			for i := range states {
				a := acts[(i+round)%len(acts)]
				recv := make([]model.Message, 3)
				for j := range recv {
					recv[j] = outboxes[j][i]
				}
				next[i] = ex.Update(model.AgentID(i), states[i], a, recv)
			}
			states = next
		}
	}
}
