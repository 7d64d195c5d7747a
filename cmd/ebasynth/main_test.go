package main

import (
	"strings"
	"testing"
)

func TestSynthMinEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := run([]string{"-exchange", "min", "-n", "3", "-t", "1"}); err != nil {
		t.Errorf("ebasynth min failed: %v", err)
	}
}

func TestSynthBasicEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := run([]string{"-exchange", "basic", "-n", "3", "-t", "1"}); err != nil {
		t.Errorf("ebasynth basic failed: %v", err)
	}
}

func TestSynthFipEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := run([]string{"-exchange", "fip", "-n", "3", "-t", "1"}); err != nil {
		t.Errorf("ebasynth fip failed: %v", err)
	}
}

// TestSynthReportsDisagreements: at n−t = 1 synth(P0) decides 1 a round
// before Pmin does, and ebasynth fails on it.
func TestSynthReportsDisagreements(t *testing.T) {
	if err := run([]string{"-exchange", "min", "-n", "2", "-t", "1"}); err == nil {
		t.Error("synth(P0) over Emin at n=2,t=1 reported no disagreement with Pmin")
	}
}

func TestSynthErrors(t *testing.T) {
	if err := run([]string{"-exchange", "bogus"}); err == nil {
		t.Error("unknown exchange accepted")
	}
	if err := run([]string{"-nope"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-parallel", "-5"}); err == nil || !strings.Contains(err.Error(), "need 0 (one worker per CPU) or more") {
		t.Errorf("ebasynth -parallel -5: %v; want a usage error", err)
	}
}
