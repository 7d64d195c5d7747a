package loadtest

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/serve"
)

// TestRunAgainstInProcessServer drives the full mixed load against an
// httptest server and expects a clean summary — including when the
// admission pool is small enough that 429 retries are exercised. The
// mix is deterministic, so each load verifies an exact number of sweep
// records (9650 for the fixed 1000-request min n=3,t=1 mix); a drift
// means the served stream changed shape.
func TestRunAgainstInProcessServer(t *testing.T) {
	for _, tc := range []struct {
		name        string
		server      serve.Config
		load        Config
		wantRecords int64
	}{
		{"small admission pool", serve.Config{MaxInflight: 4, MaxParallelism: 1},
			Config{Requests: 200, Concurrency: 16}, 1930},
		{"fixed mix", serve.Config{},
			Config{Requests: 1000, Concurrency: 32, Stack: "min", N: 3, T: 1}, 9650},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(serve.NewServer(tc.server).Handler())
			defer ts.Close()

			tc.load.BaseURL = ts.URL
			sum, err := Run(context.Background(), tc.load)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := sum.Err(); err != nil {
				t.Fatalf("summary: %v (details %v)", err, sum.Details)
			}
			if sum.Sweeps+sum.Checks+sum.Knowledge != sum.Requests {
				t.Fatalf("mix %d+%d+%d != %d", sum.Sweeps, sum.Checks, sum.Knowledge, sum.Requests)
			}
			if sum.Records != tc.wantRecords {
				t.Fatalf("%d sweep records verified, want %d", sum.Records, tc.wantRecords)
			}
			if sum.RequestsPerSecond <= 0 || sum.P99Millis < sum.P50Millis {
				t.Fatalf("implausible latency summary: %+v", sum)
			}
		})
	}
}

// TestRetriesAbsorb429s pins the admission contract from the client
// side: a server that bounces a request twice before serving it costs
// two retries, not an error.
func TestRetriesAbsorb429s(t *testing.T) {
	s := serve.NewServer(serve.Config{MaxParallelism: 1})
	inner := s.Handler()
	var mu sync.Mutex
	bounces := map[string]int{}
	outer := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		n := bounces[string(body)]
		bounces[string(body)]++
		mu.Unlock()
		if n < 2 && r.URL.Path != "/v1/knowledge" {
			http.Error(w, "synthetic capacity bounce", http.StatusTooManyRequests)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(outer)
	defer ts.Close()

	sum, err := Run(context.Background(), Config{BaseURL: ts.URL, Requests: 20, Concurrency: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := sum.Err(); err != nil {
		t.Fatalf("summary: %v (details %v)", err, sum.Details)
	}
	if sum.Retried429 == 0 {
		t.Fatal("no retries recorded despite synthetic bounces")
	}
}

// TestSummaryErrTaxonomy pins the Err mapping the CLI's exit codes rely
// on.
func TestSummaryErrTaxonomy(t *testing.T) {
	clean := &Summary{Requests: 10}
	if err := clean.Err(); err != nil {
		t.Fatalf("clean summary: %v", err)
	}
	dirty := &Summary{Requests: 10, Errors: 2, Details: []string{"sweep #0: boom"}}
	if err := dirty.Err(); err == nil {
		t.Fatal("dirty summary returned nil error")
	}
}
