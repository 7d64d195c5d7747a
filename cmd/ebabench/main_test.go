package main

import (
	"testing"

	"repro/internal/experiments"
)

// TestBenchEndToEnd prints every table but E6L, the larger rows, which
// only the command builds.
func TestBenchEndToEnd(t *testing.T) {
	if err := run([]string{"-trials", "25", "-seed", "7"}, experiments.Generators); err != nil {
		t.Errorf("ebabench failed: %v", err)
	}
}

func TestBenchFlagError(t *testing.T) {
	for _, args := range [][]string{
		{"-unknown"},
		{"-skip-slow"},
		{"-trials", "0"},  // no random trial: E12's verdict would rest on no evidence
		{"-trials", "-1"}, // a negative count would make the random sources unbounded
		{"-parallel", "-5"},
	} {
		if err := run(args, experiments.Generators, largerCells); err == nil {
			t.Errorf("ebabench %v accepted", args)
		}
	}
}
