// Package runtime executes a protocol stack concurrently: one goroutine
// per agent, exchanging messages through a router goroutine that enforces
// the synchronized-round semantics of Section 3 and injects the failure
// pattern's omissions. It produces a Result identical to the sequential
// engine's for the same configuration — a property the tests check — and
// exists both as a demonstration that the paper's protocols run unchanged
// on a "real" concurrent substrate and as a cross-check on the engine.
package runtime

import (
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/model"
)

// Concurrent is the goroutine-per-agent engine.Executor: Execute is Run.
type Concurrent struct{}

// Name returns "concurrent".
func (Concurrent) Name() string { return "concurrent" }

// Execute runs the configuration on the concurrent runtime. It has no
// use for scratch buffers — a Buffers cannot be shared across the n agent
// goroutines — and ignores buf, as engine.Executor allows.
func (Concurrent) Execute(cfg engine.Config, _ *engine.Buffers) (*engine.Result, error) {
	return Run(cfg)
}

var _ engine.Executor = Concurrent{}

// agentReport is what an agent hands the router each round: the action it
// performed and the messages it wants sent.
type agentReport struct {
	id     model.AgentID
	action model.Action
	outbox []model.Message
	state  model.State // the post-round state (sent after the update step)
}

// Run executes the configuration with one goroutine per agent. The result
// is identical to engine.Run's for the same configuration.
func Run(cfg engine.Config) (res *engine.Result, err error) {
	n, horizon, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	ex, act, pat := cfg.Exchange, cfg.Action, cfg.Pattern

	res = &engine.Result{
		N:             n,
		Horizon:       horizon,
		Pattern:       pat,
		Inits:         append([]model.Value(nil), cfg.Inits...),
		States:        make([][]model.State, horizon+1),
		Actions:       make([][]model.Action, horizon),
		Decision:      make([]model.Value, n),
		DecisionRound: make([]int, n),
	}
	for i := range res.Decision {
		res.Decision[i] = model.None
	}

	// Channels: agents report actions+outboxes on reportCh, receive their
	// inbox on deliver[i], and report their updated state on stateCh. The
	// done channel is closed if the router aborts, releasing every blocked
	// agent so wg.Wait cannot deadlock.
	reportCh := make(chan agentReport, n)
	stateCh := make(chan agentReport, n)
	deliver := make([]chan []model.Message, n)
	for i := range deliver {
		deliver[i] = make(chan []model.Message, 1)
	}
	errCh := make(chan error, n)
	done := make(chan struct{})

	var wg sync.WaitGroup
	initial := make([]model.State, n)
	for i := 0; i < n; i++ {
		initial[i] = ex.Initial(model.AgentID(i), cfg.Inits[i])
	}
	res.States[0] = append([]model.State(nil), initial...)

	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id model.AgentID, state model.State) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					select {
					case errCh <- fmt.Errorf("runtime: agent %d panicked: %v", id, r):
					default:
					}
				}
			}()
			for m := 0; m < horizon; m++ {
				a := act.Act(id, state)
				out := ex.Messages(id, state, a, make([]model.Message, ex.N()))
				select {
				case reportCh <- agentReport{id: id, action: a, outbox: out}:
				case <-done:
					return
				}
				var inbox []model.Message
				select {
				case inbox = <-deliver[id]:
				case <-done:
					return
				}
				state = ex.Update(id, state, a, inbox)
				select {
				case stateCh <- agentReport{id: id, state: state}:
				case <-done:
					return
				}
			}
		}(model.AgentID(i), initial[i])
	}

	// The router drives the rounds.
	routerErr := router(res, pat, horizon, n, reportCh, stateCh, deliver, errCh)
	close(done)

	wg.Wait()
	close(errCh)
	for e := range errCh {
		if e != nil && err == nil {
			err = e
		}
	}
	if routerErr != nil && err == nil {
		err = routerErr
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// router collects each round's reports, applies the failure pattern,
// delivers inboxes, and records the trace. Iteration over agents is in a
// fixed order so that statistics match the sequential engine exactly.
func router(res *engine.Result, pat *model.Pattern, horizon, n int,
	reportCh, stateCh chan agentReport, deliver []chan []model.Message, errCh chan error) error {

	outboxes := make([][]model.Message, n)
	for m := 0; m < horizon; m++ {
		acts := make([]model.Action, n)
		for k := 0; k < n; k++ {
			select {
			case rep := <-reportCh:
				outboxes[rep.id] = rep.outbox
				acts[rep.id] = rep.action
			case e := <-errCh:
				return e
			}
		}
		res.Actions[m] = acts
		for i := 0; i < n; i++ {
			if len(outboxes[i]) != n {
				return fmt.Errorf("runtime: agent %d produced %d messages for %d agents",
					i, len(outboxes[i]), n)
			}
			if d := acts[i].Decision(); d.IsSet() && res.Decision[i] == model.None {
				res.Decision[i] = d
				res.DecisionRound[i] = m + 1
			}
			for _, msg := range outboxes[i] {
				if msg != nil {
					res.Stats.MessagesSent++
					res.Stats.BitsSent += int64(msg.Bits())
				}
			}
		}

		states := make([]model.State, n)
		for j := 0; j < n; j++ {
			inbox := make([]model.Message, n)
			for i := 0; i < n; i++ {
				msg := outboxes[i][j]
				if msg != nil && !pat.Delivered(m, model.AgentID(i), model.AgentID(j)) {
					msg = nil
				}
				inbox[i] = msg
				if msg != nil {
					res.Stats.MessagesDelivered++
					res.Stats.BitsDelivered += int64(msg.Bits())
				}
			}
			deliver[j] <- inbox
		}
		for k := 0; k < n; k++ {
			select {
			case rep := <-stateCh:
				states[rep.id] = rep.state
			case e := <-errCh:
				return e
			}
		}
		res.States[m+1] = states
	}
	return nil
}
