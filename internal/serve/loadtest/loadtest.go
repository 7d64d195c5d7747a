// Package loadtest drives an ebaserve instance with a deterministic mix
// of concurrent sweep, check, and knowledge requests and verifies every
// response it can: sweep streams must verify end to end
// (core.VerifyOutcomeStream), check blocks must be byte-identical
// across repetitions (the serving layer may never make verdicts
// request-dependent), and knowledge queries must answer within the
// system's dimensions. 429s are part of the admission contract, not
// failures — the harness backs off and retries, and reports how often
// it had to.
package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/serve"
)

// Config tunes one load-test run against a serving base URL.
type Config struct {
	// BaseURL roots the target server's routes (no trailing slash).
	BaseURL string
	// Requests is the total number of work requests to issue;
	// Concurrency how many run at once (defaults 1000 and 32).
	Requests    int
	Concurrency int
	// Stack, N, T select the sweep the requests exercise (defaults
	// "min", 3, 1 — small enough that the mix is request-bound, not
	// compute-bound).
	Stack string
	N, T  int
	// SweepShards fans sweep requests over this many stripes, so a
	// single sweep response stays small (default 16).
	SweepShards int
	// MaxRetries bounds the per-request 429 retry budget (default 50).
	MaxRetries int
	// Client overrides the HTTP client (default: pooled transport sized
	// to Concurrency).
	Client *http.Client
}

// Summary is the run's outcome: the request mix, every failure, the
// latency distribution, and the throughput.
type Summary struct {
	Requests  int `json:"requests"`
	Sweeps    int `json:"sweeps"`
	Checks    int `json:"checks"`
	Knowledge int `json:"knowledge"`
	// Errors counts failed requests (transport errors, unexpected
	// statuses, verification failures); Details carries the first few.
	Errors  int      `json:"errors"`
	Details []string `json:"details,omitempty"`
	// Retried429 counts admission bounces absorbed by backoff.
	Retried429 int64 `json:"retried_429"`
	// Records totals the outcome records of all verified sweep streams.
	Records int64 `json:"records"`
	// Seconds is the wall-clock run time; RequestsPerSecond the
	// throughput; P50Millis/P99Millis the request latency distribution.
	Seconds           float64 `json:"seconds"`
	RequestsPerSecond float64 `json:"requests_per_second"`
	P50Millis         float64 `json:"p50_millis"`
	P99Millis         float64 `json:"p99_millis"`
}

// Err folds the summary into the repository's error taxonomy: nil when
// every request succeeded, an ErrVerification-wrapped error otherwise
// (a response that fails verification is a data failure, not a
// transport hiccup — the run already absorbed those via retries).
func (s *Summary) Err() error {
	if s.Errors == 0 {
		return nil
	}
	detail := ""
	if len(s.Details) > 0 {
		detail = ": " + s.Details[0]
	}
	return fmt.Errorf("%w: %d of %d load-test requests failed%s", fabric.ErrVerification, s.Errors, s.Requests, detail)
}

// request is one planned unit of load.
type request struct {
	kind  string
	index int
}

// Run executes the configured load against cfg.BaseURL. The request
// plan is deterministic in cfg (index-striped mix), so two runs against
// equivalent servers issue identical request sequences; only the
// interleaving varies.
func Run(ctx context.Context, cfg Config) (*Summary, error) {
	if cfg.Requests <= 0 {
		cfg.Requests = 1000
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 32
	}
	if cfg.Stack == "" {
		cfg.Stack, cfg.N, cfg.T = "min", 3, 1
	}
	if cfg.SweepShards <= 0 {
		cfg.SweepShards = 16
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 50
	}
	if cfg.Client == nil {
		tr := &http.Transport{MaxIdleConns: cfg.Concurrency, MaxIdleConnsPerHost: cfg.Concurrency}
		cfg.Client = &http.Client{Transport: tr}
		defer tr.CloseIdleConnections()
	}

	lt := &loadTester{cfg: cfg}
	// One probe query learns the system's dimensions (and warms the
	// server's System LRU so the timed phase measures serving, not one
	// giant cold build).
	if err := lt.probe(ctx); err != nil {
		return nil, err
	}

	work := make(chan request)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range work {
				lt.do(ctx, req)
			}
		}()
	}
	sum := &Summary{Requests: cfg.Requests}
	for i := 0; i < cfg.Requests; i++ {
		// Mix: of every 10 requests, 1 sweep stripe, 2 checks, 7
		// knowledge queries — reads dominate, as they would in service.
		var kind string
		switch i % 10 {
		case 0:
			kind = "sweep"
			sum.Sweeps++
		case 1, 5:
			kind = "check"
			sum.Checks++
		default:
			kind = "knowledge"
			sum.Knowledge++
		}
		select {
		case work <- request{kind: kind, index: i}:
		case <-ctx.Done():
			close(work)
			wg.Wait()
			return nil, context.Cause(ctx)
		}
	}
	close(work)
	wg.Wait()
	sum.Seconds = time.Since(start).Seconds()

	lt.mu.Lock()
	defer lt.mu.Unlock()
	sum.Errors = len(lt.errors)
	if len(lt.errors) > 5 {
		sum.Details = lt.errors[:5]
	} else {
		sum.Details = lt.errors
	}
	sum.Retried429 = lt.retried
	sum.Records = lt.records
	if sum.Seconds > 0 {
		sum.RequestsPerSecond = float64(cfg.Requests) / sum.Seconds
	}
	sort.Float64s(lt.latencies)
	sum.P50Millis = quantileMillis(lt.latencies, 0.50)
	sum.P99Millis = quantileMillis(lt.latencies, 0.99)
	return sum, nil
}

func quantileMillis(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i] * 1000
}

// loadTester is the shared state of one run's workers.
type loadTester struct {
	cfg Config

	runs    int // system dimensions, learned by probe
	horizon int

	mu        sync.Mutex
	errors    []string
	latencies []float64
	retried   int64
	records   int64

	checkRef []byte // first check response; all others must match
}

func (lt *loadTester) fail(req request, format string, args ...any) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.errors = append(lt.errors, fmt.Sprintf("%s #%d: %s", req.kind, req.index, fmt.Sprintf(format, args...)))
}

// probe issues the dimension-learning knowledge query.
func (lt *loadTester) probe(ctx context.Context) error {
	status, body, err := lt.post(ctx, "/v1/knowledge", serve.KnowledgeRequest{
		Stack: lt.cfg.Stack, N: lt.cfg.N, T: lt.cfg.T, Query: serve.QueryExists, Value: 1,
	}, lt.cfg.MaxRetries)
	if err != nil {
		return fmt.Errorf("%w: load-test probe: %v", fabric.ErrTransport, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%w: load-test probe: status %d: %s", fabric.ErrVerification, status, body)
	}
	var kr serve.KnowledgeResponse
	if err := json.Unmarshal(body, &kr); err != nil {
		return fmt.Errorf("%w: load-test probe: %v", fabric.ErrVerification, err)
	}
	lt.runs, lt.horizon = kr.Runs, kr.Horizon
	if lt.runs == 0 {
		return fmt.Errorf("%w: load-test probe reported an empty system", fabric.ErrVerification)
	}
	return nil
}

// post sends one JSON request, absorbing up to maxRetries admission
// bounces (429) with linear backoff. Returns the final status and body.
func (lt *loadTester) post(ctx context.Context, path string, body any, maxRetries int) (int, []byte, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, lt.cfg.BaseURL+path, bytes.NewReader(payload))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := lt.cfg.Client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < maxRetries {
			lt.mu.Lock()
			lt.retried++
			lt.mu.Unlock()
			select {
			case <-time.After(time.Duration(attempt+1) * time.Millisecond):
			case <-ctx.Done():
				return 0, nil, context.Cause(ctx)
			}
			continue
		}
		return resp.StatusCode, data, nil
	}
}

// do executes one planned request and verifies its response.
func (lt *loadTester) do(ctx context.Context, req request) {
	t0 := time.Now()
	switch req.kind {
	case "sweep":
		lt.doSweep(ctx, req)
	case "check":
		lt.doCheck(ctx, req)
	default:
		lt.doKnowledge(ctx, req)
	}
	lt.mu.Lock()
	lt.latencies = append(lt.latencies, time.Since(t0).Seconds())
	lt.mu.Unlock()
}

func (lt *loadTester) doSweep(ctx context.Context, req request) {
	shard := fmt.Sprintf("%d/%d", req.index%lt.cfg.SweepShards, lt.cfg.SweepShards)
	status, body, err := lt.post(ctx, "/v1/sweep", serve.SweepRequest{
		Stack: lt.cfg.Stack, N: lt.cfg.N, T: lt.cfg.T, Shard: shard, Parallelism: 1,
	}, lt.cfg.MaxRetries)
	if err != nil {
		lt.fail(req, "%v", err)
		return
	}
	if status != http.StatusOK {
		lt.fail(req, "status %d: %s", status, body)
		return
	}
	sum, err := core.VerifyOutcomeStream(bytes.NewReader(body))
	if err != nil {
		lt.fail(req, "stream verification: %v", err)
		return
	}
	lt.mu.Lock()
	lt.records += sum.Records
	lt.mu.Unlock()
}

func (lt *loadTester) doCheck(ctx context.Context, req request) {
	status, body, err := lt.post(ctx, "/v1/check", serve.CheckRequest{
		Stack: lt.cfg.Stack, N: lt.cfg.N, T: lt.cfg.T, Parallelism: 1,
	}, lt.cfg.MaxRetries)
	if err != nil {
		lt.fail(req, "%v", err)
		return
	}
	if status != http.StatusOK {
		lt.fail(req, "status %d: %s", status, body)
		return
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.checkRef == nil {
		lt.checkRef = body
		return
	}
	if !bytes.Equal(body, lt.checkRef) {
		lt.errors = append(lt.errors, fmt.Sprintf("check #%d: verdict block differs from the run's first", req.index))
	}
}

func (lt *loadTester) doKnowledge(ctx context.Context, req request) {
	queries := []string{serve.QueryExists, serve.QueryKnowsExists, serve.QueryKnowsCK, serve.QueryNonfaulty, serve.QueryDecided}
	kr := serve.KnowledgeRequest{
		Stack: lt.cfg.Stack, N: lt.cfg.N, T: lt.cfg.T,
		Query: queries[req.index%len(queries)],
		Agent: req.index % lt.cfg.N,
		Run:   req.index % lt.runs,
		Time:  req.index % (lt.horizon + 1),
		Value: req.index % 2,
	}
	status, body, err := lt.post(ctx, "/v1/knowledge", kr, lt.cfg.MaxRetries)
	if err != nil {
		lt.fail(req, "%v", err)
		return
	}
	if status != http.StatusOK {
		lt.fail(req, "status %d: %s", status, body)
		return
	}
	var resp serve.KnowledgeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		lt.fail(req, "decode: %v", err)
		return
	}
	if resp.Runs != lt.runs || resp.Horizon != lt.horizon {
		lt.fail(req, "dimensions drifted: %d/%d, probe saw %d/%d", resp.Runs, resp.Horizon, lt.runs, lt.horizon)
	}
}
