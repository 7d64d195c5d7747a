// Package trace renders and serializes completed runs: a round-by-round
// human-readable view of who sent what to whom (reconstructed by replaying
// the exchange protocol's deterministic μ against the failure pattern), a
// JSON form for tooling, and a structural diff between corresponding runs
// of different protocols.
package trace

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/model"
)

// Message is one sent message in a round.
type Message struct {
	// From identifies the sender, To the recipient.
	From int `json:"from"`
	To   int `json:"to"`
	// Payload is the message's rendered form.
	Payload string `json:"payload"`
	// Bits is the wire size.
	Bits int `json:"bits"`
	// Dropped reports whether the adversary suppressed delivery.
	Dropped bool `json:"dropped,omitempty"`
}

// Round is one synchronized round of a run.
type Round struct {
	// Round is the 1-based round number.
	Round int `json:"round"`
	// Actions holds each agent's action, rendered.
	Actions []string `json:"actions"`
	// Messages lists the round's traffic (self-messages omitted).
	Messages []Message `json:"messages,omitempty"`
}

// Record is a serializable completed run.
type Record struct {
	// Exchange and Action name the protocol stack.
	Exchange string `json:"exchange"`
	Action   string `json:"action"`
	// N is the number of agents; Horizon the number of rounds.
	N       int `json:"n"`
	Horizon int `json:"horizon"`
	// Faulty lists the faulty agents.
	Faulty []int `json:"faulty"`
	// Inits holds the initial preferences as 0/1.
	Inits []int `json:"inits"`
	// Rounds is the round-by-round trace.
	Rounds []Round `json:"rounds"`
	// Decisions[i] is the value agent i decided (-1 if none);
	// DecisionRounds[i] the round it decided in (0 if none).
	Decisions      []int `json:"decisions"`
	DecisionRounds []int `json:"decisionRounds"`
	// BitsSent and MessagesSent summarize traffic.
	BitsSent     int64 `json:"bitsSent"`
	MessagesSent int   `json:"messagesSent"`
}

// New builds a Record from a completed run, replaying the exchange's μ to
// reconstruct the message traffic. The exchange must be the one the run
// was produced with (μ is deterministic, so the reconstruction is exact);
// actionName labels the record with the deciding protocol.
func New(res *engine.Result, ex model.Exchange, actionName string) *Record {
	rec := &Record{
		Exchange:       ex.Name(),
		Action:         actionName,
		N:              res.N,
		Horizon:        res.Horizon,
		Inits:          make([]int, res.N),
		Decisions:      make([]int, res.N),
		DecisionRounds: make([]int, res.N),
		BitsSent:       res.Stats.BitsSent,
		MessagesSent:   res.Stats.MessagesSent,
	}
	for _, i := range res.Pattern.FaultySet() {
		rec.Faulty = append(rec.Faulty, int(i))
	}
	for i := 0; i < res.N; i++ {
		rec.Inits[i] = int(res.Inits[i])
		rec.Decisions[i] = int(res.Decision[i])
		rec.DecisionRounds[i] = res.DecisionRound[i]
	}
	for m := 0; m < res.Horizon; m++ {
		round := Round{Round: m + 1, Actions: make([]string, res.N)}
		for i := 0; i < res.N; i++ {
			id := model.AgentID(i)
			round.Actions[i] = res.Actions[m][i].String()
			out := ex.Messages(id, res.States[m][i], res.Actions[m][i], make([]model.Message, res.N))
			for j, msg := range out {
				if msg == nil || j == i {
					continue
				}
				round.Messages = append(round.Messages, Message{
					From:    i,
					To:      j,
					Payload: msg.String(),
					Bits:    msg.Bits(),
					Dropped: !res.Pattern.Delivered(m, id, model.AgentID(j)),
				})
			}
		}
		rec.Rounds = append(rec.Rounds, round)
	}
	return rec
}

// JSON serializes the record.
func (r *Record) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// FromJSON deserializes a record.
func FromJSON(data []byte) (*Record, error) {
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return &rec, nil
}

// Render formats the record round by round for humans. Graph-carrying
// full-information payloads are summarized by size rather than printed.
func (r *Record) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s / %s — n=%d, %d rounds, faulty %v\n", r.Exchange, r.Action, r.N, r.Horizon, r.Faulty)
	fmt.Fprintf(&b, "inits: %s\n", intsCompact(r.Inits))
	for _, round := range r.Rounds {
		fmt.Fprintf(&b, "round %d:\n", round.Round)
		for i, a := range round.Actions {
			if a != "noop" {
				fmt.Fprintf(&b, "  agent %d: %s\n", i, a)
			}
		}
		for _, msg := range round.Messages {
			status := "→"
			if msg.Dropped {
				status = "✗"
			}
			payload := msg.Payload
			if msg.Bits > 64 || len(payload) > 24 {
				payload = fmt.Sprintf("%s <%d-bit payload>", payload, msg.Bits)
			}
			fmt.Fprintf(&b, "  %d %s %d: %s\n", msg.From, status, msg.To, payload)
		}
	}
	b.WriteString("decisions:\n")
	for i := range r.Decisions {
		if r.DecisionRounds[i] == 0 {
			fmt.Fprintf(&b, "  agent %d: undecided\n", i)
		} else {
			fmt.Fprintf(&b, "  agent %d: %d in round %d\n", i, r.Decisions[i], r.DecisionRounds[i])
		}
	}
	fmt.Fprintf(&b, "traffic: %d messages, %d bits\n", r.MessagesSent, r.BitsSent)
	return b.String()
}

func intsCompact(xs []int) string {
	var b strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&b, "%d", x)
	}
	return b.String()
}

// Diff structurally compares two records of corresponding runs (same
// inits, same adversary, possibly different protocols), reporting where
// actions or decisions diverge. Empty means identical decisions and
// action timing.
func Diff(a, b *Record) []string {
	var out []string
	if a.N != b.N {
		return []string{fmt.Sprintf("agent counts differ: %d vs %d", a.N, b.N)}
	}
	for i := 0; i < a.N; i++ {
		if a.Decisions[i] != b.Decisions[i] {
			out = append(out, fmt.Sprintf("agent %d decided %d vs %d", i, a.Decisions[i], b.Decisions[i]))
		}
		if a.DecisionRounds[i] != b.DecisionRounds[i] {
			out = append(out, fmt.Sprintf("agent %d decision round %d vs %d",
				i, a.DecisionRounds[i], b.DecisionRounds[i]))
		}
	}
	rounds := len(a.Rounds)
	if len(b.Rounds) < rounds {
		rounds = len(b.Rounds)
	}
	for m := 0; m < rounds; m++ {
		for i := 0; i < a.N; i++ {
			if a.Rounds[m].Actions[i] != b.Rounds[m].Actions[i] {
				out = append(out, fmt.Sprintf("round %d agent %d action %q vs %q",
					m+1, i, a.Rounds[m].Actions[i], b.Rounds[m].Actions[i]))
			}
		}
	}
	return out
}
