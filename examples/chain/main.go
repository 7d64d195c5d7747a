// Chain reproduces the introduction's impossibility argument: under
// omission failures there is no EBA protocol that decides 0 as soon as it
// learns *in any way* that some agent preferred 0.
//
// Three agents, t=1. Agent 0 is faulty with initial preference 0; agents
// 1 and 2 are nonfaulty with preference 1.
//
// Run r:  agent 0 sends nothing, ever. The nonfaulty agents must
//
//	eventually decide 1 (agent 0's preference might have been 1).
//
// Run r′: same, except one late message: in round 2 agent 0 tells agent 2
//
//	(truthfully) that its initial preference was 0.
//
// Agent 1 cannot distinguish r from r′, so it decides 1 in both. An eager
// 0-biased protocol has agent 2 decide 0 in r′ — two nonfaulty agents
// disagree. The paper's P_min protocol only accepts a 0 through a fresh
// chain of 0-decisions and stays correct on exactly the same adversary.
//
//	go run ./examples/chain
package main

import (
	"context"
	"fmt"
	"log"

	eba "repro"
)

const (
	n = 3
	t = 1
)

// runRPrime is the introduction's run r′ for the given stack: agent 0
// silent except for one message to agent 2 in round 2.
func runRPrime(stack eba.Stack) *eba.Result {
	pattern := eba.NewPattern(n, stack.Horizon())
	for m := 0; m < stack.Horizon(); m++ {
		for j := 1; j < n; j++ {
			if m == 1 && j == 2 {
				continue // the single late delivery: round 2, to agent 2
			}
			pattern.Drop(m, 0, eba.AgentID(j))
		}
	}
	res, err := eba.NewRunner(stack).Run(context.Background(),
		eba.Scenario{Pattern: pattern, Inits: []eba.Value{eba.Zero, eba.One, eba.One}})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func report(name string, res *eba.Result) {
	fmt.Printf("%s:\n", name)
	for i := 1; i < n; i++ {
		id := eba.AgentID(i)
		fmt.Printf("  nonfaulty agent %d: decided %v in round %d\n", i, res.Decided(id), res.Round(id))
	}
	agreement := true
	for _, v := range eba.CheckRun(res, eba.SpecOptions{}) {
		if v.Property == "Agreement" {
			agreement = false
		}
	}
	if agreement {
		fmt.Println("  agreement: satisfied")
	} else {
		fmt.Println("  agreement: VIOLATED")
	}
	fmt.Println()
}

func main() {
	fmt.Println("Introduction counterexample: eager 0-bias is impossible under omissions")
	fmt.Println()

	// The naive protocol decides 0 on any evidence of an initial 0 —
	// including news of agent 0's that reaches agent 2 late, in round 2
	// of r′.
	naive, err := eba.NewStack("naive", eba.WithN(n), eba.WithT(t))
	if err != nil {
		log.Fatal(err)
	}
	report("naive protocol on run r′", runRPrime(naive))

	// P_min on the same adversary: the late delivery carries no decide-0
	// announcement, so no 0-chain forms and both nonfaulty agents decide 1.
	min, err := eba.NewStack("min", eba.WithN(n), eba.WithT(t))
	if err != nil {
		log.Fatal(err)
	}
	report("P_min on run r′", runRPrime(min))

	fmt.Println("The naive protocol's agent 2 trusts the stale 0 while agent 1 times out —")
	fmt.Println("exactly the disagreement the paper's 0-chain condition is designed to prevent.")
}
