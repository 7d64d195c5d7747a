package episteme

import (
	"context"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
)

func TestBoxComponentsJoinRuns(t *testing.T) {
	// Two runs sharing a nonfaulty decided-1 agent's local state at equal
	// times must land in the same ⊡-component; runs with disjoint
	// initial-preference information must not.
	sys := buildFIP(t, 3, 1, 0)
	comp := sys.BoxComponents(sys.memberNAndDecided(model.One))

	// Find the all-1 failure-free run and the all-1 run where agent 0 is
	// marked faulty but drops nothing: every agent's view is identical at
	// every time, so the runs must share a component.
	var ffRun, markedRun = -1, -1
	for r, res := range sys.Runs {
		allOnes := true
		for _, v := range res.Inits {
			if v != model.One {
				allOnes = false
			}
		}
		if !allOnes {
			continue
		}
		drops := false
		for m := 0; m < sys.Horizon; m++ {
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					if !res.Pattern.Delivered(m, model.AgentID(i), model.AgentID(j)) {
						drops = true
					}
				}
			}
		}
		if drops {
			continue
		}
		switch res.Pattern.NumFaulty() {
		case 0:
			ffRun = r
		case 1:
			if res.Pattern.Faulty(0) && markedRun < 0 {
				markedRun = r
			}
		}
	}
	if ffRun < 0 || markedRun < 0 {
		t.Fatal("expected runs not found")
	}
	if comp[ffRun] != comp[markedRun] {
		t.Error("behaviorally identical all-1 runs are in different ⊡-components")
	}

	// An all-0 failure-free run has no N∧O members at all (everyone
	// decides 0), so it cannot join the all-1 run's component.
	var zeroRun = -1
	for r, res := range sys.Runs {
		if res.Pattern.NumFaulty() != 0 {
			continue
		}
		allZero := true
		for _, v := range res.Inits {
			if v != model.Zero {
				allZero = false
			}
		}
		if allZero {
			zeroRun = r
			break
		}
	}
	if zeroRun < 0 {
		t.Fatal("all-0 run not found")
	}
	if comp[zeroRun] == comp[ffRun] {
		t.Error("all-0 and all-1 failure-free runs share an N∧O ⊡-component")
	}
}

func TestMemberNAndDecided(t *testing.T) {
	sys := buildFIP(t, 3, 1, 0)
	members := sys.memberNAndDecided(model.One)
	member := func(i model.AgentID, p Point) bool {
		return members(p, sys.faultyMasks(p.Time)[sys.rowOf(p.Time, p.Run)])>>uint(i)&1 != 0
	}
	// In the all-1 failure-free run, agents decide 1 in round 2 (time 1):
	// members from time 0 ("about to decide") onward... the set includes
	// agents with DecisionRound ≤ time+1, so at time 0 deciders-in-round-1
	// only. Popt decides in round 2 here, so membership starts at time 1.
	var ffRun = -1
	for r, res := range sys.Runs {
		if res.Pattern.NumFaulty() != 0 {
			continue
		}
		allOnes := true
		for _, v := range res.Inits {
			if v != model.One {
				allOnes = false
			}
		}
		if allOnes {
			ffRun = r
			break
		}
	}
	if ffRun < 0 {
		t.Fatal("run not found")
	}
	if member(0, Point{Run: ffRun, Time: 0}) {
		t.Error("agent 0 should not be an N∧O member at time 0 (decides in round 2)")
	}
	if !member(0, Point{Run: ffRun, Time: 1}) {
		t.Error("agent 0 should be an N∧O member at time 1 (about to decide 1)")
	}
	if !member(0, Point{Run: ffRun, Time: 2}) {
		t.Error("membership must persist after deciding")
	}
}

func TestCheckOptimalityDetectsSlowProtocol(t *testing.T) {
	// Covered more fully in E9; here: the violations mention the failing
	// direction so the reports are actionable.
	sys, err := BuildSystem(context.Background(), Context{Exchange: exchange.NewFIP(3), T: 1},
		slowFIPAction{})
	if err != nil {
		t.Fatal(err)
	}
	vs := checkOptimality(t, sys, -1, 1)
	if len(vs) == 0 {
		t.Fatal("a never-deciding protocol cannot satisfy the optimality characterization")
	}
}

// slowFIPAction never decides: trivially correct-by-silence and trivially
// non-optimal.
type slowFIPAction struct{}

func (slowFIPAction) Name() string                                { return "Pslow" }
func (slowFIPAction) Act(model.AgentID, model.State) model.Action { return model.Noop }
