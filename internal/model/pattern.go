package model

import (
	"errors"
	"fmt"
)

// Pattern is a failure pattern (the paper's adversary α = (N, F)): the set
// of nonfaulty agents together with, for each round, which messages are
// dropped. Patterns have a fixed horizon: Drop may only be called for send
// times m < Horizon(), and messages sent at or beyond the horizon are
// always delivered. (All protocols in this repository decide by round t+2,
// so a horizon of t+2 loses nothing.)
//
// The zero Pattern is not usable; construct with NewPattern.
type Pattern struct {
	n       int
	horizon int
	faulty  []bool
	// drops[m*n*n + int(i)*n + int(j)] reports whether the message sent by
	// i to j at time m (round m+1) is dropped.
	drops []bool
}

// NewPattern returns a failure-free pattern for n agents with the given
// horizon (number of rounds for which drops can be specified).
func NewPattern(n, horizon int) *Pattern {
	if n <= 0 {
		panic("model: NewPattern with n <= 0")
	}
	if horizon < 0 {
		panic("model: NewPattern with negative horizon")
	}
	return &Pattern{
		n:       n,
		horizon: horizon,
		faulty:  make([]bool, n),
		drops:   make([]bool, horizon*n*n),
	}
}

// N is the number of agents.
func (p *Pattern) N() int { return p.n }

// Horizon is the number of rounds for which drops can be specified.
func (p *Pattern) Horizon() int { return p.horizon }

// SetFaulty marks agent i as faulty (removes it from the nonfaulty set N).
// Marking an agent faulty does not by itself drop any message: the paper
// explicitly allows a faulty agent that "acts nonfaulty throughout the run"
// (footnote 3), and several proofs depend on such agents.
func (p *Pattern) SetFaulty(i AgentID) { p.faulty[i] = true }

// SetNonfaulty returns agent i to the nonfaulty set and restores delivery
// of every message it sends within the horizon.
func (p *Pattern) SetNonfaulty(i AgentID) {
	p.faulty[i] = false
	for m := 0; m < p.horizon; m++ {
		for j := 0; j < p.n; j++ {
			p.drops[p.idx(m, i, AgentID(j))] = false
		}
	}
}

// Nonfaulty reports whether agent i is in the nonfaulty set N.
func (p *Pattern) Nonfaulty(i AgentID) bool { return !p.faulty[i] }

// Faulty reports whether agent i is faulty.
func (p *Pattern) Faulty(i AgentID) bool { return p.faulty[i] }

// NumFaulty is the number of faulty agents.
func (p *Pattern) NumFaulty() int {
	k := 0
	for _, f := range p.faulty {
		if f {
			k++
		}
	}
	return k
}

// NonfaultySet returns the nonfaulty agents in increasing order.
func (p *Pattern) NonfaultySet() []AgentID {
	out := make([]AgentID, 0, p.n)
	for i := 0; i < p.n; i++ {
		if !p.faulty[i] {
			out = append(out, AgentID(i))
		}
	}
	return out
}

// FaultySet returns the faulty agents in increasing order.
func (p *Pattern) FaultySet() []AgentID {
	out := make([]AgentID, 0, p.n)
	for i := 0; i < p.n; i++ {
		if p.faulty[i] {
			out = append(out, AgentID(i))
		}
	}
	return out
}

func (p *Pattern) idx(m int, i, j AgentID) int {
	return m*p.n*p.n + int(i)*p.n + int(j)
}

// Drop marks the message sent by i to j at time m (round m+1) as dropped
// and marks i faulty: in the sending-omissions model only faulty agents
// lose messages. It panics if m is outside [0, Horizon).
func (p *Pattern) Drop(m int, i, j AgentID) {
	if m < 0 || m >= p.horizon {
		panic(fmt.Sprintf("model: Drop time %d outside horizon %d", m, p.horizon))
	}
	p.faulty[i] = true
	p.drops[p.idx(m, i, j)] = true
}

// Undrop restores delivery of the message sent by i to j at time m. The
// agent's faulty mark is left in place: enumerators sweep drop sets on a
// fixed faulty set, and the paper explicitly allows a faulty agent that
// drops nothing (footnote 3). It panics if m is outside [0, Horizon).
func (p *Pattern) Undrop(m int, i, j AgentID) {
	if m < 0 || m >= p.horizon {
		panic(fmt.Sprintf("model: Undrop time %d outside horizon %d", m, p.horizon))
	}
	p.drops[p.idx(m, i, j)] = false
}

// Silence drops every message agent i sends at times [from, to) (to every
// recipient other than i itself) and marks i faulty. A to beyond the
// horizon is clipped.
func (p *Pattern) Silence(i AgentID, from, to int) {
	if to > p.horizon {
		to = p.horizon
	}
	for m := from; m < to; m++ {
		for j := 0; j < p.n; j++ {
			if AgentID(j) == i {
				continue
			}
			p.Drop(m, i, AgentID(j))
		}
	}
}

// Delivered implements the paper's F(m, i, j): whether the message sent by
// i to j at time m (round m+1) is delivered. Messages sent at or beyond the
// horizon are always delivered.
func (p *Pattern) Delivered(m int, i, j AgentID) bool {
	if m < 0 || m >= p.horizon {
		return true
	}
	return !p.drops[p.idx(m, i, j)]
}

// Clone returns a deep copy of the pattern.
func (p *Pattern) Clone() *Pattern {
	q := &Pattern{
		n:       p.n,
		horizon: p.horizon,
		faulty:  make([]bool, len(p.faulty)),
		drops:   make([]bool, len(p.drops)),
	}
	copy(q.faulty, p.faulty)
	copy(q.drops, p.drops)
	return q
}

// Key returns a canonical fingerprint of the pattern, suitable for use as a
// map key when deduplicating enumerated patterns.
func (p *Pattern) Key() string {
	return string(p.AppendKey(make([]byte, 0, 4+len(p.faulty)+len(p.drops))))
}

// AppendKey appends Key's bytes to dst.
func (p *Pattern) AppendKey(dst []byte) []byte {
	dst = appendInt(dst, p.n)
	dst = append(dst, ':')
	for _, f := range p.faulty {
		dst = append(dst, boolByte(f))
	}
	dst = append(dst, ':')
	for _, d := range p.drops {
		dst = append(dst, boolByte(d))
	}
	return dst
}

// AppendPrefixKey appends a fingerprint of the faulty set and of every
// drop sent before time m (rounds 1..m): two patterns of one shape agree
// on those iff their prefix keys are equal. m is clipped to the horizon.
func (p *Pattern) AppendPrefixKey(dst []byte, m int) []byte {
	for _, f := range p.faulty {
		dst = append(dst, boolByte(f))
	}
	dst = append(dst, ':')
	for _, d := range p.drops[:min(max(m, 0), p.horizon)*p.n*p.n] {
		dst = append(dst, boolByte(d))
	}
	return dst
}

// FaultyDropsTo reports which faulty agents drop the message they send to
// j at time m, as a bitmask over the faulty agents in increasing order
// (bit k is the k-th faulty agent) — everything about round m+1 that
// reaches j, since nonfaulty senders always deliver.
func (p *Pattern) FaultyDropsTo(m int, j AgentID) uint64 {
	var bits uint64
	k := uint(0)
	for i, f := range p.faulty {
		if !f {
			continue
		}
		if !p.Delivered(m, AgentID(i), j) {
			bits |= 1 << k
		}
		k++
	}
	return bits
}

func boolByte(b bool) byte {
	if b {
		return '1'
	}
	return '0'
}

// String renders the pattern compactly: the faulty set followed by the
// dropped messages.
func (p *Pattern) String() string {
	s := "faulty{"
	first := true
	for i := 0; i < p.n; i++ {
		if p.faulty[i] {
			if !first {
				s += ","
			}
			s += fmt.Sprint(i)
			first = false
		}
	}
	s += "}"
	for m := 0; m < p.horizon; m++ {
		for i := 0; i < p.n; i++ {
			for j := 0; j < p.n; j++ {
				if p.drops[p.idx(m, AgentID(i), AgentID(j))] {
					s += fmt.Sprintf(" drop(m=%d,%d→%d)", m, i, j)
				}
			}
		}
	}
	return s
}

// ErrPatternRejected is wrapped by FailureModel.Admits when a pattern lies
// outside the model.
var ErrPatternRejected = errors.New("pattern outside failure model")

// FailureKind distinguishes the failure models of Section 3.
type FailureKind int

// Supported failure models.
const (
	// SendingOmission is the SO(t) model: a faulty agent may omit an
	// arbitrary set of its outgoing messages in any round.
	SendingOmission FailureKind = iota + 1
	// CrashFailure is the crash model: once a faulty agent omits a message
	// to anyone, it omits all messages in all later rounds. (Within its
	// crash round it may reach an arbitrary subset of recipients.)
	CrashFailure
)

// String names the failure kind.
func (k FailureKind) String() string {
	switch k {
	case SendingOmission:
		return "SO"
	case CrashFailure:
		return "crash"
	default:
		return "unknown"
	}
}

// FailureModel is a set of failure patterns, parameterized by the maximum
// number t of faulty agents (the paper's SO(t) and crash models).
type FailureModel struct {
	// Kind selects sending omissions or crashes.
	Kind FailureKind
	// T is the maximum number of faulty agents.
	T int
}

// SO returns the sending-omissions model with at most t faulty agents.
func SO(t int) FailureModel { return FailureModel{Kind: SendingOmission, T: t} }

// Crash returns the crash model with at most t faulty agents.
func Crash(t int) FailureModel { return FailureModel{Kind: CrashFailure, T: t} }

// String renders the model, e.g. "SO(2)".
func (fm FailureModel) String() string {
	return fmt.Sprintf("%s(%d)", fm.Kind, fm.T)
}

// Admits reports whether the pattern belongs to the failure model,
// returning a descriptive error (wrapping ErrPatternRejected) if not.
func (fm FailureModel) Admits(p *Pattern) error {
	if got := p.NumFaulty(); got > fm.T {
		return fmt.Errorf("%w: %d faulty agents, model allows %d", ErrPatternRejected, got, fm.T)
	}
	for i := 0; i < p.n; i++ {
		if p.faulty[i] {
			continue
		}
		for m := 0; m < p.horizon; m++ {
			for j := 0; j < p.n; j++ {
				if !p.Delivered(m, AgentID(i), AgentID(j)) {
					return fmt.Errorf("%w: nonfaulty agent %d drops a message at time %d",
						ErrPatternRejected, i, m)
				}
			}
		}
	}
	if fm.Kind == CrashFailure {
		for i := 0; i < p.n; i++ {
			if err := checkCrash(p, AgentID(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkCrash verifies the crash condition for agent i: if a message from i
// to another agent is dropped at time m, every message from i to another
// agent at every later time within the horizon is also dropped. Messages
// from an agent to itself are ignored: self-delivery models the agent's own
// memory and is behaviorally invisible (footnote 3 of the paper).
func checkCrash(p *Pattern, i AgentID) error {
	crashed := false
	for m := 0; m < p.horizon; m++ {
		anyDrop, allDrop := false, true
		for j := 0; j < p.n; j++ {
			if AgentID(j) == i {
				continue
			}
			if p.Delivered(m, i, AgentID(j)) {
				allDrop = false
			} else {
				anyDrop = true
			}
		}
		if crashed && !allDrop {
			return fmt.Errorf("%w: agent %d sends after crashing (time %d)",
				ErrPatternRejected, i, m)
		}
		if anyDrop {
			crashed = true
		}
	}
	return nil
}
