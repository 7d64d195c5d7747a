package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	eba "repro"
)

// shardFiles runs the min n=3,t=1 sweep as k stripes into dir and
// returns the stream paths.
func shardFiles(t *testing.T, dir string, k int) []string {
	t.Helper()
	paths := make([]string, k)
	for i := 0; i < k; i++ {
		paths[i] = filepath.Join(dir, "shard"+string(rune('0'+i))+".jsonl")
		args := []string{"-stack", "min", "-n", "3", "-t", "1",
			"-shard", string(rune('0'+i)) + "/" + string(rune('0'+k)), "-out", paths[i]}
		if err := run(args); err != nil {
			t.Fatalf("ebashard %v: %v", args, err)
		}
	}
	return paths
}

// TestShardMergeCmpEquivalence is the CLI face of the CI smoke: three
// shard processes + merge produce the byte-identical stream a single
// 0/1 process writes.
func TestShardMergeCmpEquivalence(t *testing.T) {
	dir := t.TempDir()
	single := filepath.Join(dir, "single.jsonl")
	if err := run([]string{"-stack", "min", "-n", "3", "-t", "1", "-shard", "0/1", "-out", single}); err != nil {
		t.Fatalf("single-process run: %v", err)
	}
	paths := shardFiles(t, dir, 3)
	merged := filepath.Join(dir, "merged.jsonl")
	if err := run(append([]string{"-merge", "-out", merged}, paths...)); err != nil {
		t.Fatalf("merge: %v", err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("merged stream differs from the single-process stream")
	}
}

// TestCheckShardMergeVerdicts runs the model-checker mode end to end:
// per-shard indexes, merged verdicts, and equality with the 1-shard
// verdict output.
func TestCheckShardMergeVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	idxs := make([]string, 3)
	for i := 0; i < 3; i++ {
		idxs[i] = filepath.Join(dir, "idx"+string(rune('0'+i))+".json")
		if err := run([]string{"-check", "-stack", "min", "-n", "3", "-t", "1",
			"-shard", string(rune('0'+i)) + "/3", "-out", idxs[i]}); err != nil {
			t.Fatalf("index shard %d: %v", i, err)
		}
	}
	idxSingle := filepath.Join(dir, "idx-single.json")
	if err := run([]string{"-check", "-stack", "min", "-n", "3", "-t", "1", "-shard", "0/1", "-out", idxSingle}); err != nil {
		t.Fatalf("single index: %v", err)
	}

	v3 := filepath.Join(dir, "v3.txt")
	if err := run(append([]string{"-check", "-merge", "-safety", "-out", v3}, idxs...)); err != nil {
		t.Fatalf("merged verdicts: %v", err)
	}
	v1 := filepath.Join(dir, "v1.txt")
	if err := run([]string{"-check", "-merge", "-safety", "-out", v1, idxSingle}); err != nil {
		t.Fatalf("single verdicts: %v", err)
	}
	got, _ := os.ReadFile(v3)
	want, _ := os.ReadFile(v1)
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("sharded verdicts differ from single-process ones:\n%s\nvs\n%s", got, want)
	}
	if !bytes.Contains(got, []byte("implements P0: OK")) {
		t.Fatalf("verdicts missing the implements line:\n%s", got)
	}
}

// TestShardEnvDefault checks $EBA_SHARD supplies the stripe when -shard
// is not given.
func TestShardEnvDefault(t *testing.T) {
	dir := t.TempDir()
	flagged := filepath.Join(dir, "flagged.jsonl")
	if err := run([]string{"-stack", "min", "-n", "3", "-t", "1", "-shard", "1/2", "-out", flagged}); err != nil {
		t.Fatalf("flagged run: %v", err)
	}
	t.Setenv("EBA_SHARD", "1/2")
	envd := filepath.Join(dir, "envd.jsonl")
	if err := run([]string{"-stack", "min", "-n", "3", "-t", "1", "-out", envd}); err != nil {
		t.Fatalf("env run: %v", err)
	}
	got, _ := os.ReadFile(envd)
	want, _ := os.ReadFile(flagged)
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatal("$EBA_SHARD did not select the same stripe as -shard")
	}
}

// TestCPUProfile checks -cpuprofile writes a profile on a successful run
// and stops profiling on a failing one, so the next start succeeds.
func TestCPUProfile(t *testing.T) {
	dir := t.TempDir()
	failed := filepath.Join(dir, "failed.prof")
	if err := run([]string{"-stack", "bogus", "-cpuprofile", failed, "-out", os.DevNull}); err == nil {
		t.Fatal("unknown stack accepted")
	}
	prof := filepath.Join(dir, "cpu.prof")
	if err := run([]string{"-stack", "min", "-n", "3", "-t", "1", "-cpuprofile", prof, "-out", os.DevNull}); err != nil {
		t.Fatalf("profiled run: %v", err)
	}
	for _, path := range []string{failed, prof} {
		// A CPU profile is a gzipped protobuf.
		if b, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: not a CPU profile (%d bytes, err %v)", path, len(b), err)
		}
	}
	if err := run([]string{"-cpuprofile", filepath.Join(dir, "missing", "cpu.prof"), "-out", os.DevNull}); err == nil {
		t.Error("unwritable profile path accepted")
	}
}

// TestMemProfile checks -memprofile writes a heap profile on a
// successful run and on a failing one.
func TestMemProfile(t *testing.T) {
	dir := t.TempDir()
	failed, prof := filepath.Join(dir, "failed.prof"), filepath.Join(dir, "mem.prof")
	if err := run([]string{"-stack", "bogus", "-memprofile", failed, "-out", os.DevNull}); err == nil {
		t.Fatal("unknown stack accepted")
	}
	if err := run([]string{"-check", "-stack", "min", "-n", "3", "-t", "1", "-memprofile", prof, "-out", os.DevNull}); err != nil {
		t.Fatalf("profiled run: %v", err)
	}
	for _, path := range []string{failed, prof} {
		// A heap profile is a gzipped protobuf.
		if b, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: not a heap profile (%d bytes, err %v)", path, len(b), err)
		}
	}
	if err := run([]string{"-memprofile", filepath.Join(dir, "missing", "mem.prof"), "-out", os.DevNull}); err == nil {
		t.Error("unwritable profile path accepted")
	}
}

// TestShardErrors covers the argument-validation paths.
func TestShardErrors(t *testing.T) {
	if err := run([]string{"-shard", "3/3"}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := run([]string{"-merge"}); err == nil {
		t.Error("merge with no files accepted")
	}
	if err := run([]string{"-check", "-merge"}); err == nil {
		t.Error("check merge with no files accepted")
	}
	if err := run([]string{"-stack", "bogus", "-out", os.DevNull}); err == nil {
		t.Error("unknown stack accepted")
	}
	for _, args := range [][]string{
		{"-parallel", "-5", "-out", os.DevNull},
		{"-check", "-parallel", "-1", "-out", os.DevNull},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "need 0 (one worker per CPU) or more") {
			t.Errorf("%v: %v; want a usage error", args, err)
		}
	}
	// Every sweep is spec-checked: Pnaive's agreement violation aborts it.
	if err := run([]string{"-stack", "naive", "-n", "3", "-t", "1", "-out", os.DevNull}); err == nil || !strings.Contains(err.Error(), "violates the EBA specification") {
		t.Errorf("ebashard -stack naive: %v; want a spec violation", err)
	}
	if err := run([]string{"-spec=false", "-out", os.DevNull}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -spec") {
		t.Errorf("ebashard -spec=false: %v; want an unknown-flag error", err)
	}
	// The checker picks the quotient from the stack's exchange; the flag
	// would only let a script believe it had chosen something.
	for _, args := range [][]string{
		{"-check", "-quotient", "-stack", "fip", "-out", os.DevNull},
		{"-check", "-quotient", "-stack", "min", "-out", os.DevNull},
		{"-check", "-merge", "-quotient"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "-quotient applies to sweeps") {
			t.Errorf("%v: %v; want the usage error that says who picks the quotient", args, err)
		}
	}
	// The fleet worker mode is gone; its flags must not parse.
	for _, args := range [][]string{
		{"-worker", "http://127.0.0.1:1"},
		{"-id", "w1"},
		{"-timeout", "5s"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: %v; want an unknown-flag error", args, err)
		}
	}
}

// TestExitCode pins the exit-code mapping: a failed verdict, however
// wrapped, exits 2; every other failure exits 1.
func TestExitCode(t *testing.T) {
	refused := &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"verification", eba.ErrFabricVerification, 2},
		{"wrapped verification", fmt.Errorf("merging: %w", eba.ErrFabricVerification), 2},
		{"joined verification", errors.Join(io.ErrUnexpectedEOF, eba.ErrFabricVerification), 2},
		{"plain", errors.New("unknown stack"), 1},
		{"transport", fmt.Errorf("posting stripe: %w", refused), 1},
	} {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("%s: exitCode(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}
