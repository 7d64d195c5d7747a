// Package engine executes a protocol stack — an information-exchange
// protocol paired with an action protocol — under a failure pattern, one
// synchronized round at a time, exactly as Section 3 of the paper
// prescribes: at each time m every agent performs the action chosen by its
// action protocol, the exchange protocol selects messages (μ), the failure
// pattern filters deliveries (F), and every agent updates its local state
// (δ).
//
// The engine is deterministic and sequential; internal/runtime provides an
// equivalent concurrent execution with one goroutine per agent and is
// tested to produce byte-identical traces.
package engine

import (
	"errors"
	"fmt"

	"repro/internal/model"
)

// Config describes one execution.
type Config struct {
	// Exchange is the information-exchange protocol E.
	Exchange model.Exchange
	// Action is the action protocol P.
	Action model.ActionProtocol
	// Pattern is the failure pattern (the adversary).
	Pattern *model.Pattern
	// Inits holds each agent's initial preference; length must equal the
	// number of agents and every entry must be 0 or 1.
	Inits []model.Value
	// Horizon is the number of rounds to execute. Zero means "use the
	// pattern's horizon".
	Horizon int
}

// Validate checks that the configuration describes a run — the three
// protocols present, pattern and initial preferences sized for the
// exchange's agents, every preference set, no negative horizon — and
// returns the agent count and the resolved horizon. Every executor
// (RunBuffered here, internal/runtime, the model checker's memoizing one)
// starts with it, so all of them refuse the same inputs with the same
// words.
func (cfg Config) Validate() (n, horizon int, err error) {
	if cfg.Exchange == nil || cfg.Action == nil || cfg.Pattern == nil {
		return 0, 0, errors.New("engine: Exchange, Action, and Pattern are all required")
	}
	n = cfg.Exchange.N()
	if cfg.Pattern.N() != n {
		return 0, 0, fmt.Errorf("engine: pattern is for %d agents, exchange for %d", cfg.Pattern.N(), n)
	}
	if len(cfg.Inits) != n {
		return 0, 0, fmt.Errorf("engine: %d initial values for %d agents", len(cfg.Inits), n)
	}
	for i, v := range cfg.Inits {
		if !v.IsSet() {
			return 0, 0, fmt.Errorf("engine: agent %d has no initial preference", i)
		}
	}
	horizon = cfg.Horizon
	if horizon == 0 {
		horizon = cfg.Pattern.Horizon()
	}
	if horizon < 0 {
		return 0, 0, fmt.Errorf("engine: negative horizon %d", horizon)
	}
	return n, horizon, nil
}

// Stats aggregates message traffic for the complexity experiments
// (Proposition 8.1). Senders are charged for every non-⊥ message they
// emit whether or not the adversary delivers it.
type Stats struct {
	// MessagesSent counts non-⊥ messages handed to the network.
	MessagesSent int
	// MessagesDelivered counts messages that reached their recipient.
	MessagesDelivered int
	// BitsSent is the total wire size of sent messages.
	BitsSent int64
	// BitsDelivered is the total wire size of delivered messages.
	BitsDelivered int64
}

// Result is a completed run: the full state and action trace plus the
// decision ledger and traffic statistics.
type Result struct {
	// N is the number of agents.
	N int
	// Horizon is the number of rounds executed.
	Horizon int
	// Pattern is the adversary the run was executed against.
	Pattern *model.Pattern
	// Inits records the initial preferences.
	Inits []model.Value
	// States[m][i] is agent i's local state at time m, for m in 0..Horizon.
	States [][]model.State
	// Actions[m][i] is the action agent i performed at time m (i.e. in
	// round m+1), for m in 0..Horizon-1.
	Actions [][]model.Action
	// Decision[i] is the first value agent i decided, or None.
	Decision []model.Value
	// DecisionRound[i] is the round in which agent i first decided (the
	// deciding action happens at time DecisionRound[i]-1), or 0 if it
	// never decided.
	DecisionRound []int
	// Stats aggregates message traffic.
	Stats Stats
}

// NewResult returns the empty ledger of a run of n agents over horizon
// rounds: the trace slices sized, every decision None, inits recorded as
// given (an executor that must not alias its caller's slice passes a
// copy). The executors that keep their own round loop — RunBuffered and
// the model checker's memoizing one — start from it and fill it in
// through Record and Stats.Add, so the ledger's rules are written once.
func NewResult(n, horizon int, pat *model.Pattern, inits []model.Value) *Result {
	res := &Result{
		N:             n,
		Horizon:       horizon,
		Pattern:       pat,
		Inits:         inits,
		States:        make([][]model.State, horizon+1),
		Actions:       make([][]model.Action, horizon),
		Decision:      make([]model.Value, n),
		DecisionRound: make([]int, n),
	}
	for i := range res.Decision {
		res.Decision[i] = model.None
	}
	return res
}

// Record enters the actions performed at time m (round m+1) into the
// ledger: acts becomes the trace's row — it is retained, not copied — and
// an agent's first deciding action fixes its Decision and DecisionRound;
// later ones are ignored.
func (r *Result) Record(m int, acts []model.Action) {
	r.Actions[m] = acts
	for i, a := range acts {
		if d := a.Decision(); d.IsSet() && r.Decision[i] == model.None {
			r.Decision[i] = d
			r.DecisionRound[i] = m + 1
		}
	}
}

// Add accumulates one round's traffic into s.
func (s *Stats) Add(round Stats) {
	s.MessagesSent += round.MessagesSent
	s.MessagesDelivered += round.MessagesDelivered
	s.BitsSent += round.BitsSent
	s.BitsDelivered += round.BitsDelivered
}

// Buffers holds the per-round scratch of an execution — the outbox and
// inbox matrices and the rolling state slices. Every round runs on one:
// μ writes each agent's messages into an outbox row, the failure pattern
// filters them into the inbox rows δ reads. A caller running many
// configurations (a batch worker, a benchmark loop) keeps one Buffers and
// the matrices are allocated once, not once per run. A Buffers value
// belongs to one goroutine at a time; the zero value is ready to use and
// resizes itself when the agent count changes.
//
// Ownership rule: nothing reachable from a returned *Result aliases the
// buffers — the trace's slices are fresh and the states in it are the
// exchange's own heap values — so the same buffers can be reused run
// after run while every earlier Result stays live and mutation-safe.
type Buffers struct {
	outbox [][]model.Message
	inbox  [][]model.Message
	cur    []model.State
	next   []model.State
}

// NewBuffers returns an empty buffer set, sized lazily on first use.
func NewBuffers() *Buffers { return &Buffers{} }

// NewArenaBuffers is NewBuffers under the name benchmark/layers.go still
// calls: there is one kind of Buffers, and benchmark/ changes only in a
// benchmark-kind PR, which switches that call and deletes this alias.
func NewArenaBuffers() *Buffers { return NewBuffers() }

// ensure sizes the message matrices for n agents. Both are sized
// together, so the length of one tells whether either needs work.
func (b *Buffers) ensure(n int) {
	if len(b.outbox) == n {
		return
	}
	b.outbox = squareRows(b.outbox, n)
	b.inbox = squareRows(b.inbox, n)
}

// states returns the two rolling state slices, sized for n agents.
func (b *Buffers) states(n int) (cur, next []model.State) {
	if cap(b.cur) < n {
		b.cur = make([]model.State, n)
		b.next = make([]model.State, n)
	}
	return b.cur[:n], b.next[:n]
}

// squareRows returns rows resized to an n×n matrix, keeping the storage
// that is large enough.
func squareRows(rows [][]model.Message, n int) [][]model.Message {
	if cap(rows) < n {
		rows = make([][]model.Message, n)
	}
	rows = rows[:n]
	for i := range rows {
		if cap(rows[i]) < n {
			rows[i] = make([]model.Message, n)
		}
		rows[i] = rows[i][:n]
	}
	return rows
}

// Run executes the configuration and returns the completed run.
func Run(cfg Config) (*Result, error) { return RunBuffered(cfg, nil) }

// RunBuffered is Run on the caller's scratch buffers; a nil buf draws a
// throwaway Buffers for this one run. The returned Result never aliases
// buf, so the same buffers can be reused for the next run while earlier
// results stay live.
func RunBuffered(cfg Config, buf *Buffers) (*Result, error) {
	n, horizon, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if buf == nil {
		buf = NewBuffers()
	}
	ex, act, pat := cfg.Exchange, cfg.Action, cfg.Pattern

	res := NewResult(n, horizon, pat, append([]model.Value(nil), cfg.Inits...))
	cur, next := buf.states(n)
	for i := 0; i < n; i++ {
		cur[i] = ex.Initial(model.AgentID(i), cfg.Inits[i])
	}
	res.States[0] = append([]model.State(nil), cur...)

	for m := 0; m < horizon; m++ {
		// Every agent chooses its action from its time-m state. The acts
		// slice is recorded in the trace, so it is allocated fresh.
		acts := make([]model.Action, n)
		for i := 0; i < n; i++ {
			acts[i] = act.Act(model.AgentID(i), cur[i])
		}
		res.Record(m, acts)

		stats, err := StepInto(ex, pat, m, cur, acts, next, buf)
		if err != nil {
			return nil, err
		}
		res.Stats.Add(stats)
		cur, next = next, cur
		res.States[m+1] = append([]model.State(nil), cur...)
	}
	return res, nil
}

// StepInto is the round, written once: μ selects the messages each agent
// sends given its chosen action, writing them into buf's outbox rows; the
// failure pattern filters deliveries into the inbox rows; and δ produces
// the time-m+1 states, which are written into next. buf must not be nil;
// it is resized to the exchange on demand. Exchanges are contracted to
// overwrite every entry of the row μ is handed and not to retain the
// inbox slice δ receives (they copy what they need into the fresh state),
// which is what makes reusing both across rounds and runs sound. The
// produced states never alias buf, so a caller may retain them — the
// model checker's memoizing executor shares each round's successor row
// across runs.
func StepInto(ex model.Exchange, pat *model.Pattern, m int, states []model.State, acts []model.Action,
	next []model.State, buf *Buffers) (Stats, error) {

	n := ex.N()
	buf.ensure(n)
	outbox, inbox := buf.outbox, buf.inbox
	var stats Stats
	for i := 0; i < n; i++ {
		row := ex.Messages(model.AgentID(i), states[i], acts[i], outbox[i])
		if len(row) != n {
			return stats, fmt.Errorf("engine: %s.Messages returned %d entries for %d agents",
				ex.Name(), len(row), n)
		}
		outbox[i] = row
		for _, msg := range row {
			if msg != nil {
				stats.MessagesSent++
				stats.BitsSent += int64(msg.Bits())
			}
		}
	}

	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			msg := outbox[i][j]
			if msg != nil && !pat.Delivered(m, model.AgentID(i), model.AgentID(j)) {
				msg = nil
			}
			inbox[j][i] = msg
			if msg != nil {
				stats.MessagesDelivered++
				stats.BitsDelivered += int64(msg.Bits())
			}
		}
	}

	for i := 0; i < n; i++ {
		next[i] = ex.Update(model.AgentID(i), states[i], acts[i], inbox[i])
		if got := next[i].Time(); got != m+1 {
			return stats, fmt.Errorf("engine: %s.Update produced time %d at time %d",
				ex.Name(), got, m+1)
		}
	}
	return stats, nil
}

// Executor abstracts how a configured execution is driven to completion:
// Sequential runs the deterministic single-threaded engine, and
// internal/runtime's Concurrent runs one goroutine per agent. Both
// produce byte-identical Results for the same configuration, so callers
// (the core Runner, the CLIs) choose an executor for its operational
// profile, never for its semantics.
type Executor interface {
	// Name identifies the executor ("sequential", "concurrent").
	Name() string
	// Execute runs one configuration to completion on the calling
	// worker's scratch buffers, which the core Runner always supplies.
	// Executors that keep no scratch ignore buf.
	Execute(cfg Config, buf *Buffers) (*Result, error)
}

// Sequential is the deterministic single-threaded executor: Execute is
// RunBuffered.
type Sequential struct{}

// Name returns "sequential".
func (Sequential) Name() string { return "sequential" }

// Execute runs the configuration on the sequential engine.
func (Sequential) Execute(cfg Config, buf *Buffers) (*Result, error) { return RunBuffered(cfg, buf) }

var _ Executor = Sequential{}

// MustRun is Run for call sites where a configuration error is a bug.
func MustRun(cfg Config) *Result {
	res, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// Decided reports agent i's first decision (None if it never decided).
func (r *Result) Decided(i model.AgentID) model.Value { return r.Decision[i] }

// Round reports the round in which agent i first decided, or 0.
func (r *Result) Round(i model.AgentID) int { return r.DecisionRound[i] }

// AllNonfaultyDecided reports whether every nonfaulty agent decided.
func (r *Result) AllNonfaultyDecided() bool {
	for i := 0; i < r.N; i++ {
		if r.Pattern.Nonfaulty(model.AgentID(i)) && r.Decision[i] == model.None {
			return false
		}
	}
	return true
}

// MaxDecisionRound returns the latest round in which any agent decided
// (0 if no agent decided). If nonfaultyOnly is set, faulty agents are
// ignored.
func (r *Result) MaxDecisionRound(nonfaultyOnly bool) int {
	maxRound := 0
	for i := 0; i < r.N; i++ {
		if nonfaultyOnly && !r.Pattern.Nonfaulty(model.AgentID(i)) {
			continue
		}
		if r.DecisionRound[i] > maxRound {
			maxRound = r.DecisionRound[i]
		}
	}
	return maxRound
}
