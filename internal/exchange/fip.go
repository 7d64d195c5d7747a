package exchange

import (
	"repro/internal/graph"
	"repro/internal/model"
)

// FIPMsg is a full-information message: the sender's entire communication
// graph, tagged with the decision class required of every EBA context.
// G points into the sender's FIPState, which is immutable: recipients
// must treat the graph as read-only, and FIP.Update only merges from it.
type FIPMsg struct {
	// G is the sender's communication graph at sending time.
	G *graph.Graph
	// Announce is the decision the sender takes this round, or None.
	Announce model.Value
}

// Announces reports the decision class (M0/M1/M2) of the message.
func (m FIPMsg) Announces() model.Value { return m.Announce }

// Bits is the wire size of the carried graph (2 bits per label). This is
// the O(n²t)-bits-per-message cost that makes a full run of the
// full-information protocol cost O(n⁴t²) bits (Section 8).
func (m FIPMsg) Bits() int { return m.G.Bits() }

// String renders the message compactly.
func (m FIPMsg) String() string {
	if m.Announce.IsSet() {
		return "fip[decide:" + m.Announce.String() + "]"
	}
	return "fip"
}

// FIPState is the full-information local state: the agent's communication
// graph plus cached ⟨init, decided, jd⟩ components. Following Section 7's
// non-standard full-information context, decided and jd are *not* part of
// the knowledge fingerprint: they are redundant, being derivable from the
// graph and the (deterministic) protocol, and excluding them makes
// corresponding runs of different action protocols state-identical.
//
// States are handled by pointer: boxing a *FIPState into model.State
// copies one word instead of heap-allocating a box per agent per round.
// The state holds its graph by value, so a state is two objects — itself
// and the graph's label slab — and the messages its agent sends point
// into it. Callers must treat the pointed-to state as immutable.
type FIPState struct {
	time    int
	init    model.Value
	decided model.Value
	jd      model.Value
	g       graph.Graph
}

// Time returns the state's time component.
func (s *FIPState) Time() int { return s.time }

// Init returns the agent's initial preference.
func (s *FIPState) Init() model.Value { return s.init }

// Decided returns the cached decision, or None.
func (s *FIPState) Decided() model.Value { return s.decided }

// JustDecided returns the cached jd observation.
func (s *FIPState) JustDecided() model.Value { return s.jd }

// Graph returns the agent's communication graph. Callers must not mutate
// it.
func (s *FIPState) Graph() *graph.Graph { return &s.g }

// AppendKey appends the graph's fingerprint: full information, nothing
// else.
func (s *FIPState) AppendKey(dst []byte) []byte { return s.g.AppendKey(dst) }

// FIP is the full-information exchange Efip(n) of Section A.2.7.
type FIP struct {
	n int
}

// NewFIP returns Efip for n agents.
func NewFIP(n int) *FIP {
	if n <= 0 {
		panic("exchange: NewFIP with n <= 0")
	}
	return &FIP{n: n}
}

// Name returns "Efip".
func (e *FIP) Name() string { return "Efip" }

// N is the number of agents.
func (e *FIP) N() int { return e.n }

// Initial returns the time-0 state: a graph recording only the agent's own
// initial preference.
func (e *FIP) Initial(i model.AgentID, init model.Value) model.State {
	s := &FIPState{init: init, decided: model.None, jd: model.None, g: *graph.New(i, e.n)}
	s.g.SetPref(i, init)
	return s
}

// Messages broadcasts the agent's graph to everyone, every round, tagged
// with this round's decision class. The message points into the sender's
// state and is boxed once, so the per-round send side of the
// full-information exchange allocates exactly one interface header.
func (e *FIP) Messages(_ model.AgentID, s model.State, a model.Action, out []model.Message) []model.Message {
	st := s.(*FIPState)
	var msg model.Message = FIPMsg{G: &st.g, Announce: a.Decision()}
	for j := range out {
		out[j] = msg
	}
	return out
}

// AppendPermuteKey rewrites an interned fip state key under an agent
// relabeling (model.KeyPermuter): the full-information key is the graph
// key, so the rewrite is graph.AppendPermuteKey.
func (e *FIP) AppendPermuteKey(dst []byte, key []byte, perm []model.AgentID) ([]byte, error) {
	return graph.AppendPermuteKey(dst, key, perm)
}

// Update advances time, extends the graph by one round straight into the
// new state, records which agents delivered this round (Sent/NotSent
// labels on the new in-edges), merges every received graph, and refreshes
// the cached decided/jd components: two allocations, the state and its
// label slab. The agent's own in-edge is always Sent: self-delivery is
// memory and is not subject to the adversary (footnote 3 of the paper).
func (e *FIP) Update(i model.AgentID, s model.State, a model.Action, received []model.Message) model.State {
	st := s.(*FIPState)
	ns := &FIPState{
		time:    st.time + 1,
		init:    st.init,
		decided: st.decided,
		jd:      announcedValue(received),
	}
	ng := &ns.g
	st.g.CloneExtended(ng)
	for j := 0; j < e.n; j++ {
		jj := model.AgentID(j)
		if jj == i {
			ng.SetEdge(st.time, i, i, graph.Sent)
			continue
		}
		if received[j] == nil {
			ng.SetEdge(st.time, jj, i, graph.NotSent)
			continue
		}
		ng.SetEdge(st.time, jj, i, graph.Sent)
		ng.Merge(received[j].(FIPMsg).G)
	}
	if d := a.Decision(); d.IsSet() {
		ns.decided = d
	}
	return ns
}
