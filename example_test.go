package eba_test

import (
	"context"
	"fmt"

	eba "repro"
)

// The basic protocol stack reaching agreement with a silent faulty agent.
func Example() {
	stack, _ := eba.NewStack("basic", eba.WithN(5), eba.WithT(2))
	pattern := eba.Silent(5, stack.Horizon(), 0) // agent 0 faulty and silent
	inits := []eba.Value{eba.Zero, eba.One, eba.One, eba.One, eba.One}

	res, err := stack.Run(pattern, inits)
	if err != nil {
		panic(err)
	}
	for i := 1; i < 5; i++ {
		fmt.Printf("agent %d: %v in round %d\n",
			i, res.Decided(eba.AgentID(i)), res.Round(eba.AgentID(i)))
	}
	// Output:
	// agent 1: 1 in round 3
	// agent 2: 1 in round 3
	// agent 3: 1 in round 3
	// agent 4: 1 in round 3
}

// Example 7.1 of the paper: full information converts two rounds of
// silence into common knowledge and decides in round 3, where the
// limited-information protocols must wait until round t+2.
func ExampleFIP() {
	n, t := 6, 3
	pattern := eba.Example71(n, t, t+2)
	inits := eba.UniformInits(n, eba.One)

	fipStack, _ := eba.NewStack("fip", eba.WithN(n), eba.WithT(t))
	minStack, _ := eba.NewStack("min", eba.WithN(n), eba.WithT(t))
	fip, _ := fipStack.Run(pattern, inits)
	min, _ := minStack.Run(pattern, inits)
	fmt.Println("fip decides in round", fip.MaxDecisionRound(true))
	fmt.Println("min decides in round", min.MaxDecisionRound(true))
	// Output:
	// fip decides in round 3
	// min decides in round 5
}

// Checking a completed run against the EBA specification of Section 5.
func ExampleCheckRun() {
	stack, _ := eba.NewStack("min", eba.WithN(3), eba.WithT(1))
	res, _ := stack.Run(eba.FailureFree(3, stack.Horizon()),
		[]eba.Value{eba.Zero, eba.One, eba.One})
	violations := eba.CheckRun(res, eba.SpecOptions{
		RoundBound:        stack.Horizon(),
		ValidityAllAgents: true,
	})
	fmt.Println("violations:", len(violations))
	// Output:
	// violations: 0
}

// The dominance order underlying the paper's optimality notion: on the
// all-1 failure-free run, the basic exchange strictly beats the minimal
// one.
func ExampleCompareRuns() {
	n, t := 4, 1
	scenarios := []eba.Scenario{
		{Pattern: eba.FailureFree(n, t+2), Inits: eba.UniformInits(n, eba.One)},
	}
	basic, _ := eba.NewStack("basic", eba.WithN(n), eba.WithT(t))
	min, _ := eba.NewStack("min", eba.WithN(n), eba.WithT(t))
	ctx := context.Background()
	runsBasic, _ := eba.NewRunner(basic).RunBatch(ctx, scenarios)
	runsMin, _ := eba.NewRunner(min).RunBatch(ctx, scenarios)
	dom, _ := eba.CompareRuns(runsBasic, runsMin)
	fmt.Println("basic strictly dominates min here:", dom.Strictly())
	// Output:
	// basic strictly dominates min here: true
}
