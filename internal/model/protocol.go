package model

// Message is a single protocol message. The concrete type depends on the
// information-exchange protocol: a bare decide value for Emin, a small enum
// for Ebasic, a communication graph for Efip. A nil Message is the paper's
// ⊥ ("no message sent").
//
// Every EBA context requires that a recipient can tell from the message
// whether the sender is deciding 0, deciding 1, or neither (the disjoint
// message classes M0, M1, M2 of Section 5); Announces exposes exactly that.
type Message interface {
	// Announces returns Zero if the message belongs to class M0 (the sender
	// is deciding 0 this round), One if it belongs to M1, and None for
	// class M2 (any other message).
	Announces() Value

	// Bits is the length of the message's wire encoding in bits, used for
	// the message-complexity experiments (Proposition 8.1).
	Bits() int

	// String renders the message for traces.
	String() string
}

// State is an agent's local state under some information-exchange protocol.
// Every EBA context requires the components exposed here (Section 5):
// a time counter, the initial preference, the decision taken (if any), and
// the "just decided" observation jd. Concrete exchanges add more (Ebasic's
// #1 counter, Efip's communication graph) and expose it on their own state
// types.
//
// A state must be comparable with ==: a pointer, or a value of a
// comparable type. States that are equal must behave alike — the same
// components, the same key, the same messages and successors — because
// the model checker's round memo lets equal state vectors share one
// history from there on. A pointer state is equal only to itself, which
// the contract always allows.
type State interface {
	// Time is the state's time component; all agents have Time() == m at
	// time m (the system is synchronous).
	Time() int

	// Init is the agent's initial preference.
	Init() Value

	// Decided is the decision recorded in the state, or None.
	Decided() Value

	// JustDecided is the paper's jd_i: v if the agent learned in the last
	// round that some agent just decided v, None otherwise.
	JustDecided() Value

	// AppendKey appends a canonical fingerprint of the local state, its
	// key, to dst and returns the extended buffer, allocating only when
	// dst lacks the room. Two local states of the same agent are
	// indistinguishable (in the sense of the knowledge relation ~_i) iff
	// their keys are equal. Keys are only comparable between states
	// produced by the same exchange protocol.
	AppendKey(dst []byte) []byte
}

// Exchange is an information-exchange protocol E = ⟨E_1,...,E_n⟩
// (Section 3). It fixes the local state space, the initial states, and the
// functions μ (which messages to send, given the current action) and δ
// (how to update the local state after a round).
//
// Implementations must be deterministic and must treat State values as
// immutable: Update returns a fresh state and never mutates its argument.
type Exchange interface {
	// Name identifies the exchange protocol (e.g. "Emin").
	Name() string

	// N is the number of agents.
	N() int

	// Initial returns agent i's initial local state given its preference.
	Initial(i AgentID, init Value) State

	// Messages implements μ_i: the messages agent i sends this round given
	// its state s and the action a it performs this round, written into the
	// caller's row out, which has length N(): entry j is set to the message
	// to agent j, nil meaning ⊥. Every entry must be overwritten — the
	// engine hands the same row to round after round, so out arrives
	// holding an earlier round's messages — and out is returned; the row
	// must not be retained.
	Messages(i AgentID, s State, a Action, out []Message) []Message

	// Update implements δ_i: the state after a round in which agent i
	// performed action a and received the given messages (entry j is the
	// message received from agent j, nil meaning ⊥). The new state's Time
	// is s.Time()+1.
	Update(i AgentID, s State, a Action, received []Message) State
}

// KeyPermuter is the opt-in symmetry extension of Exchange: it rewrites
// an interned state key under an agent relabeling, without access to the
// state itself. Rewriting the key s.AppendKey appends under perm must spell
// the key of the state the same agent's counterpart perm[i] reaches in the
// permuted run — the contract that lets the model checker expand a
// symmetry-quotiented system into the full one by key rewriting alone
// (the permuted runs were never executed, so no State values exist for
// them).
//
// Efip rewrites the agent ids its graph keys embed; Emin and Ebasic, whose
// keys name no agent, append them unchanged — an identity that is only
// right because no key names an agent (conformance convention 8 checks
// it). Implementing it is the whole selection: episteme.BuildSystem and
// core.Runner.RunShard run one representative per agent-permutation orbit
// of such an exchange, trusting its action protocol to be symmetric too,
// and every run of an exchange that does not.
type KeyPermuter interface {
	// AppendPermuteKey appends key rewritten under perm to dst and
	// returns the extended buffer, where perm[i] is the new identity of
	// old agent i (the Pattern.Permute convention). It returns an error
	// if key is not a well-formed key of this exchange.
	AppendPermuteKey(dst []byte, key []byte, perm []AgentID) ([]byte, error)
}

// ActionProtocol is a (deterministic, memoryless) action protocol
// P = (P_1,...,P_n): a map from local states to actions (Section 3).
// Concrete protocols downcast State to the state type of the exchange they
// are designed for and panic on mismatch; pairing is validated by
// internal/core when assembling a protocol stack.
type ActionProtocol interface {
	// Name identifies the action protocol (e.g. "Pmin").
	Name() string

	// Act returns agent i's action in state s (the paper's P_i(s)).
	Act(i AgentID, s State) Action
}
