package episteme

import (
	"context"
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
)

// timelessExchange is Emin with a key that drops the state's time, so
// that the states of two times with one init, decision and jd share a key.
type timelessExchange struct{ *exchange.Min }

type timelessState struct{ model.State }

func (s timelessState) AppendKey(dst []byte) []byte {
	k := string(s.State.AppendKey(nil)) // min:time:init:decided:jd
	return append(append(dst, "min"...), k[4+strings.Index(k[4:], ":"):]...)
}

func (e timelessExchange) Initial(i model.AgentID, init model.Value) model.State {
	return timelessState{e.Min.Initial(i, init)}
}

func (e timelessExchange) Messages(i model.AgentID, s model.State, a model.Action, out []model.Message) []model.Message {
	return e.Min.Messages(i, s.(timelessState).State, a, out)
}

func (e timelessExchange) Update(i model.AgentID, s model.State, a model.Action, recv []model.Message) model.State {
	return timelessState{e.Min.Update(i, s.(timelessState).State, a, recv)}
}

// AppendPermuteKey passes a key through, as Emin's does: it names no
// agent.
func (e timelessExchange) AppendPermuteKey(dst []byte, key []byte, _ []model.AgentID) ([]byte, error) {
	return append(dst, key...), nil
}

// TestSynthesizeRefusesKeyOutsideTable: a key that collides across times
// makes a Synthesize build meet a state its table lacks. The build runs
// Act on the runner's workers, where a panic would end the process;
// Synthesize returns an error naming the agent, the time and the key
// instead, the same at every parallelism.
func TestSynthesizeRefusesKeyOutsideTable(t *testing.T) {
	const want = "episteme: synth(P0) has no action for agent 0 at time 1, state min:1:1:0"
	for _, par := range []int{1, 4} {
		synth, err := Synthesize(context.Background(), Context{Exchange: timelessExchange{exchange.NewMin(2)}, T: 1}, P0, WithParallelism(par))
		if synth != nil || err == nil || err.Error() != want {
			t.Errorf("parallelism %d: Synthesize = (table: %v, %v), want only %q", par, synth != nil, err, want)
		}
	}
}
