package engine

import (
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/model"
)

// shortExchange misbehaves by returning too few messages from μ.
type shortExchange struct{ stubExchange }

func (e shortExchange) Messages(_ model.AgentID, _ model.State, _ model.Action, out []model.Message) []model.Message {
	return out[:1]
}

// timeWarpExchange misbehaves by not advancing the time component.
type timeWarpExchange struct{ stubExchange }

func (e timeWarpExchange) Update(_ model.AgentID, s model.State, _ model.Action, _ []model.Message) model.State {
	return s // time not advanced
}

func TestStepRejectsShortMessageVector(t *testing.T) {
	n := 3
	ex := shortExchange{stubExchange{n: n}}
	states := make([]model.State, n)
	for i := range states {
		states[i] = ex.Initial(model.AgentID(i), model.One)
	}
	_, err := StepInto(ex, adversary.FailureFree(n, 2), 0, states, make([]model.Action, n), make([]model.State, n), NewBuffers())
	if err == nil || !strings.Contains(err.Error(), "entries") {
		t.Errorf("short message vector not rejected: %v", err)
	}
}

func TestStepRejectsTimeWarp(t *testing.T) {
	n := 2
	ex := timeWarpExchange{stubExchange{n: n}}
	states := make([]model.State, n)
	for i := range states {
		states[i] = ex.Initial(model.AgentID(i), model.One)
	}
	_, err := StepInto(ex, adversary.FailureFree(n, 2), 0, states, make([]model.Action, n), make([]model.State, n), NewBuffers())
	if err == nil || !strings.Contains(err.Error(), "time") {
		t.Errorf("time warp not rejected: %v", err)
	}
}

func TestRunSurfacesStepErrors(t *testing.T) {
	n := 2
	cfg := Config{
		Exchange: timeWarpExchange{stubExchange{n: n}},
		Action:   stubAction{},
		Pattern:  adversary.FailureFree(n, 2),
		Inits:    adversary.UniformInits(n, model.One),
	}
	if _, err := Run(cfg); err == nil {
		t.Error("Run did not surface the exchange misbehavior")
	}
}

func TestStepStats(t *testing.T) {
	// One decide broadcast from each of 2 agents under a half-dropping
	// pattern: stats must separate sent from delivered.
	n := 2
	ex := stubExchange{n: n}
	pat := adversary.Silent(n, 2, 0)
	states := []model.State{
		ex.Initial(0, model.One),
		ex.Initial(1, model.One),
	}
	acts := []model.Action{model.Decide1, model.Decide1}
	next := make([]model.State, n)
	stats, err := StepInto(ex, pat, 0, states, acts, next, NewBuffers())
	if err != nil {
		t.Fatal(err)
	}
	if stats.MessagesSent != 4 || stats.BitsSent != 4 {
		t.Errorf("sent = %d msgs / %d bits, want 4 / 4", stats.MessagesSent, stats.BitsSent)
	}
	// Agent 0's message to agent 1 is dropped; self-delivery and agent 1's
	// two messages arrive: 3 delivered.
	if stats.MessagesDelivered != 3 {
		t.Errorf("delivered = %d, want 3", stats.MessagesDelivered)
	}
	if next[0].Time() != 1 || next[1].Time() != 1 {
		t.Error("states not advanced")
	}
}
