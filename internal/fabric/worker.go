// The worker client: pull a lease, run the stripe through the existing
// single-process path (Runner.RunShard), heartbeat
// while it runs, upload the sealed result, repeat. Transport failures
// retry with exponential backoff and jitter, bounded; a lost lease just
// abandons the stripe (someone else owns it now); SIGTERM-style draining
// finishes the stripe in hand and uploads it before exiting.

package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/spec"
)

// WorkerConfig configures NewWorker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// ID identifies this worker to the coordinator (default hostname-pid).
	ID string
	// Parallelism bounds the per-stripe worker pool (0 = one per CPU; it
	// never changes the stripe's bytes).
	Parallelism int
	// RequestTimeout bounds every HTTP request through its context
	// (default 30s) — the -timeout flag lands here.
	RequestTimeout time.Duration
	// MaxRetries bounds retries per request beyond the first attempt
	// (default 8); retries back off exponentially from BaseBackoff
	// (default 100ms) capped at MaxBackoff (default 5s), with jitter.
	MaxRetries  int
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// PollInterval is the pause between lease polls when the coordinator
	// has nothing leasable (default 500ms, jittered).
	PollInterval time.Duration
	// Client overrides the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// Worker runs stripes for one coordinator until the job is done, the
// context is cancelled, or Drain is called.
type Worker struct {
	base       string
	id         string
	par        int
	reqTimeout time.Duration
	maxRetries int
	baseBack   time.Duration
	maxBack    time.Duration
	poll       time.Duration
	client     *http.Client
	logf       func(string, ...any)

	drainOnce sync.Once
	drainCh   chan struct{}
}

// WorkerSummary reports a worker's completed session.
type WorkerSummary struct {
	// Stripes and Records count accepted uploads.
	Stripes int
	Records int64
	// LeasesLost counts stripes abandoned because the lease expired
	// mid-run (the coordinator gave them to someone else).
	LeasesLost int
	// Rejects counts uploads the coordinator refused as unverifiable.
	Rejects int
}

// Lease-loss and job-completion flow through run contexts as causes.
var (
	errLeaseLost = errors.New("fabric: lease lost")
	errJobDone   = errors.New("fabric: job finished")
)

// NewWorker validates the configuration and returns a Worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	u, err := url.Parse(cfg.Coordinator)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("fabric: coordinator URL %q is not absolute (want http://host:port)", cfg.Coordinator)
	}
	if cfg.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 8
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Worker{
		base:       strings.TrimRight(u.String(), "/"),
		id:         cfg.ID,
		par:        cfg.Parallelism,
		reqTimeout: cfg.RequestTimeout,
		maxRetries: cfg.MaxRetries,
		baseBack:   cfg.BaseBackoff,
		maxBack:    cfg.MaxBackoff,
		poll:       cfg.PollInterval,
		client:     cfg.Client,
		logf:       cfg.Logf,
		drainCh:    make(chan struct{}),
	}, nil
}

// ID returns the worker's identity as the coordinator sees it.
func (w *Worker) ID() string { return w.id }

// Drain makes Run finish the stripe in hand (including its upload) and
// then return instead of leasing another — the graceful half of SIGTERM
// handling. Safe to call from any goroutine, any number of times.
func (w *Worker) Drain() { w.drainOnce.Do(func() { close(w.drainCh) }) }

func (w *Worker) drained() bool {
	select {
	case <-w.drainCh:
		return true
	default:
		return false
	}
}

// Run pulls and executes stripes until the coordinator reports the job
// done (nil error), the context is cancelled, Drain is called, or a
// failure is classified: ErrTransport after bounded retries, or
// ErrVerification when this worker's own runs fail (spec violation) or
// the job aborts on a digest conflict.
func (w *Worker) Run(ctx context.Context) (*WorkerSummary, error) {
	sum := &WorkerSummary{}
	var job JobSpec
	if status, errText, err := w.do(ctx, http.MethodGet, "/job", nil, &job); err != nil {
		return sum, err
	} else if status != http.StatusOK {
		return sum, fmt.Errorf("%w: GET /job: HTTP %d: %s", ErrTransport, status, errText)
	}
	if err := job.Validate(); err != nil {
		return sum, err
	}
	st, err := job.NewStack()
	if err != nil {
		return sum, err
	}
	opts := []core.RunnerOption{core.WithParallelism(w.par)}
	if job.SpecCheck {
		opts = append(opts, core.WithSpecCheck(spec.Options{RoundBound: st.Horizon(), ValidityAllAgents: true}))
	}
	runner := core.NewRunner(st, opts...)
	w.logf("fabric: %s: joined %s", w.id, job)

	consecutiveRejects := 0
	for {
		if w.drained() {
			w.logf("fabric: %s: drained after %d stripe(s)", w.id, sum.Stripes)
			return sum, nil
		}
		if ctx.Err() != nil {
			return sum, context.Cause(ctx)
		}
		grant, ok, err := w.lease(ctx)
		if errors.Is(err, errJobDone) {
			return sum, nil
		}
		if err != nil {
			return sum, err
		}
		if !ok {
			// Nothing leasable right now; poll again after a jittered
			// pause (drain wakes the sleep so a draining idle worker
			// exits promptly).
			if !w.sleep(ctx, w.jitter(w.poll), true) {
				return sum, context.Cause(ctx)
			}
			continue
		}

		payload, records, err := w.runStripe(ctx, job, st, runner, grant)
		switch {
		case err == nil:
		case errors.Is(err, errLeaseLost):
			sum.LeasesLost++
			w.logf("fabric: %s: lease on stripe %d lost mid-run; abandoning it", w.id, grant.Stripe)
			continue
		case errors.Is(err, errJobDone):
			return sum, nil
		case ctx.Err() != nil:
			return sum, context.Cause(ctx)
		default:
			// The stripe itself failed — an execution error or a
			// specification violation, not a network condition. Retrying
			// locally would reproduce it bit for bit.
			return sum, fmt.Errorf("%w: stripe %d: %v", ErrVerification, grant.Stripe, err)
		}

		status, errText, ack, err := w.upload(ctx, grant.Stripe, payload)
		switch {
		case err != nil:
			return sum, err
		case status == http.StatusOK:
			consecutiveRejects = 0
			sum.Stripes++
			sum.Records += records
			if ack.Duplicate {
				w.logf("fabric: %s: stripe %d was already complete (matching digest)", w.id, grant.Stripe)
			}
		case status == http.StatusBadRequest:
			sum.Rejects++
			consecutiveRejects++
			w.logf("fabric: %s: stripe %d rejected by coordinator: %s", w.id, grant.Stripe, errText)
			if consecutiveRejects >= 3 {
				return sum, fmt.Errorf("%w: %d consecutive uploads rejected (last: %s)", ErrVerification, consecutiveRejects, errText)
			}
		case status == http.StatusConflict:
			return sum, fmt.Errorf("%w: stripe %d: %s", ErrConflict, grant.Stripe, errText)
		case status == http.StatusGone:
			if err := w.finished(errText); !errors.Is(err, errJobDone) {
				return sum, err
			}
			return sum, nil
		default:
			return sum, fmt.Errorf("%w: PUT /result/%d: HTTP %d: %s", ErrTransport, grant.Stripe, status, errText)
		}
	}
}

// lease asks for a stripe: (grant, true) when one was granted, (_, false)
// when nothing is leasable right now. Job completion surfaces as
// (_, false, errJobDone-or-failure) via finished.
func (w *Worker) lease(ctx context.Context) (LeaseGrant, bool, error) {
	body, _ := json.Marshal(LeaseRequest{Worker: w.id})
	var grant LeaseGrant
	status, errText, err := w.doBody(ctx, http.MethodPost, "/lease", body, &grant)
	switch {
	case err != nil:
		return grant, false, err
	case status == http.StatusOK:
		return grant, true, nil
	case status == http.StatusNoContent:
		return grant, false, nil
	case status == http.StatusGone:
		return grant, false, w.finished(errText)
	default:
		return grant, false, fmt.Errorf("%w: POST /lease: HTTP %d: %s", ErrTransport, status, errText)
	}
}

// finished interprets a 410 body: a completed job returns errJobDone
// (which Run maps to a clean nil exit), a failed one propagates the
// coordinator's verdict as a verification failure.
func (w *Worker) finished(errText string) error {
	var done JobDone
	if json.Unmarshal([]byte(errText), &done) == nil && done.Phase == PhaseFailed {
		return fmt.Errorf("%w: job failed at the coordinator: %s", ErrVerification, done.Error)
	}
	w.logf("fabric: %s: job complete at the coordinator", w.id)
	return errJobDone
}

// runStripe executes the granted stripe to a sealed in-memory payload,
// heartbeating the lease while it runs.
func (w *Worker) runStripe(ctx context.Context, job JobSpec, st core.Stack, runner *core.Runner, grant LeaseGrant) ([]byte, int64, error) {
	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	hbDone := make(chan struct{})
	go w.heartbeatLoop(runCtx, cancel, grant, hbDone)
	defer func() { cancel(nil); <-hbDone }()

	var buf bytes.Buffer
	start := time.Now()
	src, err := job.newSource(st)
	if err != nil {
		return nil, 0, err
	}
	sum, err := runner.RunShard(runCtx, src, grant.Stripe, grant.Stripes, &buf)
	if err != nil {
		return nil, 0, runCause(runCtx, err)
	}
	w.logf("fabric: %s: stripe %d/%d: %d records in %v",
		w.id, grant.Stripe, grant.Stripes, sum.Records, time.Since(start).Round(time.Millisecond))
	return buf.Bytes(), sum.Records, nil
}

// runCause maps a stripe failure onto the heartbeat loop's cancellation
// cause when that is what aborted the run.
func runCause(ctx context.Context, err error) error {
	if cause := context.Cause(ctx); errors.Is(cause, errLeaseLost) || errors.Is(cause, errJobDone) {
		return cause
	}
	return err
}

// heartbeatLoop renews the lease at a third of its TTL until the run
// context ends. A 409 means the lease is gone — the loop cancels the run
// so the worker stops burning CPU on a stripe someone else owns. A
// transport error is ignored: the next tick retries, and if the
// coordinator stays unreachable the lease simply expires — exactly the
// treatment a silent worker gets, applied symmetrically.
func (w *Worker) heartbeatLoop(ctx context.Context, cancel context.CancelCauseFunc, grant LeaseGrant, done chan<- struct{}) {
	defer close(done)
	interval := time.Duration(grant.TTLMillis) * time.Millisecond / 3
	if interval < 20*time.Millisecond {
		interval = 20 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		body, _ := json.Marshal(HeartbeatRequest{Worker: w.id, Stripe: grant.Stripe})
		status, _, err := w.doOnce(ctx, http.MethodPost, "/heartbeat", body, nil)
		switch {
		case err != nil:
			w.logf("fabric: %s: heartbeat for stripe %d failed: %v", w.id, grant.Stripe, err)
		case status == http.StatusConflict:
			cancel(errLeaseLost)
			return
		case status == http.StatusGone:
			cancel(errJobDone)
			return
		}
	}
}

// upload PUTs the sealed stripe payload.
func (w *Worker) upload(ctx context.Context, stripe int, payload []byte) (int, string, ResultAck, error) {
	var ack ResultAck
	path := fmt.Sprintf("/result/%d?worker=%s", stripe, url.QueryEscape(w.id))
	status, errText, err := w.doBody(ctx, http.MethodPut, path, payload, &ack)
	return status, errText, ack, err
}

// do issues a bodyless request; doBody issues one with a body. Both
// retry transport errors and 5xx responses with exponential backoff and
// jitter, bounded by MaxRetries, and return ErrTransport when retries
// are exhausted. Non-5xx HTTP statuses are returned to the caller — they
// are protocol answers, not failures.
func (w *Worker) do(ctx context.Context, method, path string, body []byte, out any) (int, string, error) {
	return w.doBody(ctx, method, path, body, out)
}

func (w *Worker) doBody(ctx context.Context, method, path string, body []byte, out any) (int, string, error) {
	var lastErr error
	for attempt := 0; attempt <= w.maxRetries; attempt++ {
		if attempt > 0 {
			if !w.sleep(ctx, w.backoff(attempt-1), false) {
				return 0, "", context.Cause(ctx)
			}
		}
		status, errText, err := w.doOnce(ctx, method, path, body, out)
		if err == nil && status < 500 {
			return status, errText, nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("HTTP %d: %s", status, errText)
		}
		if ctx.Err() != nil {
			return 0, "", context.Cause(ctx)
		}
		w.logf("fabric: %s: %s %s attempt %d/%d failed: %v", w.id, method, path, attempt+1, w.maxRetries+1, lastErr)
	}
	return 0, "", fmt.Errorf("%w: %s %s: retries exhausted: %v", ErrTransport, method, path, lastErr)
}

// doOnce issues one request under the per-request timeout. For non-2xx
// responses the body (truncated) is returned as errText; for 200 with a
// non-nil out, the JSON body is decoded into it.
func (w *Worker) doOnce(ctx context.Context, method, path string, body []byte, out any) (int, string, error) {
	rctx, cancel := context.WithTimeout(ctx, w.reqTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, w.base+path, rd)
	if err != nil {
		return 0, "", err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return 0, "", fmt.Errorf("decoding %s %s response: %w", method, path, err)
		}
		return resp.StatusCode, "", nil
	}
	text, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
	return resp.StatusCode, strings.TrimSpace(string(text)), nil
}

// backoff returns the jittered exponential delay for retry n.
func (w *Worker) backoff(n int) time.Duration {
	d := w.baseBack << n
	if d <= 0 || d > w.maxBack {
		d = w.maxBack
	}
	return w.jitter(d)
}

// jitter spreads a delay uniformly over [d/2, d] so a fleet of workers
// retrying against one coordinator doesn't synchronize.
func (w *Worker) jitter(d time.Duration) time.Duration {
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// sleep waits for d, the context, or (when wakeOnDrain) a Drain call. It
// returns false when the context ended.
func (w *Worker) sleep(ctx context.Context, d time.Duration, wakeOnDrain bool) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	drain := w.drainCh
	if !wakeOnDrain {
		drain = nil
	}
	select {
	case <-ctx.Done():
		return false
	case <-drain:
		return true
	case <-t.C:
		return true
	}
}
