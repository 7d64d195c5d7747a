package main

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	eba "repro"
)

// mergedVerdicts is the block ebashard -check -merge -safety prints for
// the stack at n=3,t=1: two stripe indexes, merged, through the shared
// verdict writer.
func mergedVerdicts(t *testing.T, stackName string) []byte {
	t.Helper()
	ctx := context.Background()
	stack, err := eba.NewStack(stackName, eba.WithN(3), eba.WithT(1))
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*eba.ShardIndex, 2)
	for i := range shards {
		if shards[i], err = eba.BuildShardIndex(ctx, stack, i, len(shards)); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := eba.MergeSystems(ctx, shards)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eba.WriteVerdicts(ctx, &buf, sys, stackName, eba.VerdictOptions{Safety: true, Optimality: true}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkEndToEnd runs ebacheck -safety on the stack and requires its
// stdout to be ebashard -check -merge's block, byte for byte.
func checkEndToEnd(t *testing.T, stackName string) {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode")
	}
	var got bytes.Buffer
	if err := run([]string{"-stack", stackName, "-n", "3", "-t", "1", "-safety"}, &got); err != nil {
		t.Errorf("ebacheck %s failed: %v", stackName, err)
	}
	if want := mergedVerdicts(t, stackName); len(want) == 0 || !bytes.Equal(got.Bytes(), want) {
		t.Errorf("ebacheck %s prints\n%s\nebashard -check -merge prints\n%s", stackName, got.Bytes(), want)
	}
}

func TestCheckMinEndToEnd(t *testing.T) { checkEndToEnd(t, "min") }

// fip includes the Theorem 7.5 check and the (expected) safety violation
// report for full information.
func TestCheckFIPEndToEnd(t *testing.T) { checkEndToEnd(t, "fip") }

func TestCheckErrors(t *testing.T) {
	if err := run([]string{"-stack", "bogus"}, io.Discard); err == nil {
		t.Error("unknown stack accepted")
	}
	if err := run([]string{"-bogusflag"}, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-parallel", "-5"}, io.Discard); err == nil || !strings.Contains(err.Error(), "need 0 (one worker per CPU) or more") {
		t.Errorf("ebacheck -parallel -5: %v; want a usage error", err)
	}
	// The spec-checked exhaustive sweep is ebashard's; ebacheck checks
	// knowledge only.
	for _, flag := range []string{"-sweep", "-knowledge"} {
		err := run([]string{"-stack", "min", flag}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+flag) {
			t.Errorf("ebacheck %s: %v; want an unknown-flag error", flag, err)
		}
	}
}
