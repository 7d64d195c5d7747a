package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	eba "repro"
)

// TestCoordSweepEndToEnd drives a loopback sweep job through run(): two
// in-process workers pull its four stripes, and the merged file -out
// receives is byte for byte the stream a single RunShard 0/1 writes.
func TestCoordSweepEndToEnd(t *testing.T) {
	// A port that was free a moment ago: run() logs the address it binds
	// and returns nothing, so the test has to name one.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	dir := t.TempDir()
	out := filepath.Join(dir, "merged.jsonl")
	coordErr := make(chan error, 1)
	go func() {
		coordErr <- run([]string{"-stack", "min", "-n", "3", "-t", "1", "-stripes", "4",
			"-spool", filepath.Join(dir, "spool"), "-listen", addr, "-linger", "500ms", "-out", out})
	}()

	// The workers' transport retries cover the coordinator's start-up.
	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		w, err := eba.NewFabricWorker(eba.WorkerConfig{
			Coordinator:  "http://" + addr,
			ID:           fmt.Sprintf("w%d", i),
			PollInterval: 20 * time.Millisecond,
			BaseBackoff:  20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, workerErrs[i] = w.Run(context.Background())
		}()
	}
	wg.Wait()
	if err := <-coordErr; err != nil {
		t.Fatalf("ebacoord: %v", err)
	}
	for i, err := range workerErrs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}

	stack, err := eba.NewStack("min", eba.WithN(3), eba.WithT(1))
	if err != nil {
		t.Fatal(err)
	}
	src, err := eba.SourceSO(3, 1, stack.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := eba.NewRunner(stack).RunShard(context.Background(), src, 0, 1, &want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("the fleet's merged stream (%d bytes) differs from RunShard 0/1's (%d bytes)", len(got), want.Len())
	}
}

// TestCoordFlagErrors covers the refusals that come before the listener
// opens.
func TestCoordFlagErrors(t *testing.T) {
	spool := t.TempDir()
	for name, args := range map[string][]string{
		"-spool missing":    {"-stack", "min"},
		"-stripes 0":        {"-spool", spool, "-stripes", "0"},
		"unknown stack":     {"-spool", spool, "-stack", "bogus"},
		"-cache is gone":    {"-spool", spool, "-cache", spool},
		"-check is gone":    {"-spool", spool, "-check"},
		"-parallel is gone": {"-spool", spool, "-parallel", "2"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
