// The coordinator: one job, M stripes, any number of workers. It owns
// the lease table, verifies every upload before trusting it, spools
// verified stripes to disk (so a restarted coordinator resumes instead of
// rerunning), and runs the canonical merge when the last stripe lands.

package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/httplimit"
)

// CoordinatorConfig configures NewCoordinator.
type CoordinatorConfig struct {
	// Job is the one job this coordinator distributes.
	Job JobSpec
	// SpoolDir persists verified stripe uploads and the merged output. A
	// coordinator restarted over the same spool re-verifies the stripes
	// on disk and resumes with only the missing ones outstanding.
	SpoolDir string
	// LeaseTTL is how long a stripe lease survives without a heartbeat
	// before the stripe is requeued (default 10s). Slow and crashed
	// workers are treated identically: silence past the TTL is failure.
	LeaseTTL time.Duration
	// Parallelism is not read: the merge is one sequential k-way pass
	// over the spooled streams.
	Parallelism int
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)

	// now overrides the clock in tests.
	now func() time.Time
	// beforePublish, when set by a test, runs between a stripe's
	// completion in the lease table and its rename into the spool.
	beforePublish func(stripe int)
}

// Coordinator serves the fabric's coordinator side. Create one with
// NewCoordinator, mount Handler on an HTTP server, and call Run to drive
// lease expiry and the final merge.
type Coordinator struct {
	job     JobSpec
	horizon int // the stack's effective execution horizon
	spool   string
	ttl     time.Duration
	logf    func(string, ...any)
	now     func() time.Time
	table   *leaseTable
	wake    chan struct{}

	beforePublish func(stripe int) // CoordinatorConfig.beforePublish (tests only)

	mu            sync.Mutex
	phase         string
	failure       error
	workers       map[string]*workerStats
	mergedRecords int64
	mergedDigest  string
}

type workerStats struct {
	stripes     int
	records     int64
	first, last time.Time
}

// NewCoordinator validates the job, prepares the spool directory, and
// recovers any verified stripes already on disk.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if err := cfg.Job.Validate(); err != nil {
		return nil, err
	}
	st, err := cfg.Job.NewStack()
	if err != nil {
		return nil, err
	}
	if cfg.SpoolDir == "" {
		return nil, fmt.Errorf("fabric: coordinator needs a spool directory")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
		return nil, fmt.Errorf("fabric: creating spool: %w", err)
	}
	c := &Coordinator{
		job:     cfg.Job,
		horizon: st.Horizon(),
		spool:   cfg.SpoolDir,
		ttl:     cfg.LeaseTTL,
		logf:    cfg.Logf,
		now:     cfg.now,
		table:   newLeaseTable(cfg.Job.Stripes, cfg.LeaseTTL, cfg.now),
		wake:    make(chan struct{}, 1),
		phase:   PhaseRunning,
		workers: make(map[string]*workerStats),

		beforePublish: cfg.beforePublish,
	}
	if err := c.recover(); err != nil {
		return nil, err
	}
	return c, nil
}

// stripePath is the spool location of a verified stripe.
func (c *Coordinator) stripePath(stripe int) string {
	return filepath.Join(c.spool, fmt.Sprintf("stripe-%04d.jsonl", stripe))
}

// MergedPath is the spool location of the merged canonical outcome
// stream. The file exists once Run has completed the merge.
func (c *Coordinator) MergedPath() string {
	return filepath.Join(c.spool, "merged.jsonl")
}

// recover re-verifies stripe files a previous coordinator left in the
// spool and marks the intact ones done. A torn file — the mark of a
// coordinator killed mid-rename or a corrupted disk — is set aside and
// its stripe rerun.
func (c *Coordinator) recover() error {
	recovered := 0
	for i := 0; i < c.job.Stripes; i++ {
		path := c.stripePath(i)
		f, err := os.Open(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("fabric: reading spooled stripe: %w", err)
		}
		digest, _, verr := c.verifyStripe(f, i)
		f.Close()
		if verr != nil {
			c.logf("fabric: spooled stripe %d failed re-verification (%v); set aside for rerun", i, verr)
			if err := os.Rename(path, path+".rejected"); err != nil {
				return fmt.Errorf("fabric: setting aside torn stripe: %w", err)
			}
			continue
		}
		c.table.markDone(i, digest)
		recovered++
	}
	if recovered > 0 {
		c.logf("fabric: recovered %d verified stripe(s) from %s", recovered, c.spool)
	}
	return nil
}

// verifyStripe checks one uploaded (or spooled) stripe end to end:
// format, record digests, sealed footer, and membership — the stream
// must describe exactly stripe `stripe` of this job. It returns the
// stripe's digest and record count.
func (c *Coordinator) verifyStripe(r io.Reader, stripe int) (digest string, records int64, err error) {
	sum, err := core.VerifyOutcomeStream(r)
	if err != nil {
		return "", 0, err
	}
	h := sum.Header
	if h.Shard != stripe || h.Shards != c.job.Stripes {
		return "", 0, fmt.Errorf("stream is stripe %d/%d, expected %d/%d", h.Shard, h.Shards, stripe, c.job.Stripes)
	}
	if h.Stack != c.job.Stack || h.N != c.job.N || h.T != c.job.T || h.Horizon != c.horizon {
		return "", 0, fmt.Errorf("stream ran %s(n=%d,t=%d,h=%d), job is %s(n=%d,t=%d,h=%d)",
			h.Stack, h.N, h.T, h.Horizon, c.job.Stack, c.job.N, c.job.T, c.horizon)
	}
	return sum.Digest, sum.Records, nil
}

// --- HTTP surface ---------------------------------------------------------

// Handler returns the coordinator's HTTP handler (the wire protocol in
// the package comment).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/job", c.handleJob)
	mux.HandleFunc("/lease", c.handleLease)
	mux.HandleFunc("/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/result/", c.handleResult)
	mux.HandleFunc("/status", c.handleStatus)
	mux.HandleFunc("/merged", c.handleMerged)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// gone answers a request against a finished (or failed) job.
func (c *Coordinator) gone(w http.ResponseWriter) {
	c.mu.Lock()
	done := JobDone{Phase: c.phase}
	if c.failure != nil {
		done.Error = c.failure.Error()
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusGone, done)
}

// accepting reports whether the job still hands out and accepts work.
func (c *Coordinator) accepting() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.phase == PhaseRunning
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, c.job)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req LeaseRequest
	if err := httplimit.DecodeJSON(w, r, &req); err != nil || req.Worker == "" {
		http.Error(w, "lease request needs a worker id", http.StatusBadRequest)
		return
	}
	if !c.accepting() {
		c.gone(w)
		return
	}
	c.touchWorker(req.Worker)
	stripe, ok := c.table.lease(req.Worker)
	if !ok {
		// Nothing leasable right now: every remaining stripe is leased
		// out (or the last uploads are in flight). The worker backs off
		// and polls again — it may yet steal an expired stripe.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	c.logf("fabric: leased stripe %d/%d to %s", stripe, c.job.Stripes, req.Worker)
	writeJSON(w, http.StatusOK, LeaseGrant{Stripe: stripe, Stripes: c.job.Stripes, TTLMillis: c.ttl.Milliseconds()})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req HeartbeatRequest
	if err := httplimit.DecodeJSON(w, r, &req); err != nil || req.Worker == "" {
		http.Error(w, "heartbeat needs a worker id and stripe", http.StatusBadRequest)
		return
	}
	if !c.accepting() {
		c.gone(w)
		return
	}
	c.touchWorker(req.Worker)
	if !c.table.heartbeat(req.Worker, req.Stripe) {
		http.Error(w, "lease lost", http.StatusConflict)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPut {
		http.Error(w, "PUT only", http.StatusMethodNotAllowed)
		return
	}
	stripe, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/result/"))
	if err != nil || stripe < 0 || stripe >= c.job.Stripes {
		http.Error(w, fmt.Sprintf("no such stripe %q", strings.TrimPrefix(r.URL.Path, "/result/")), http.StatusNotFound)
		return
	}
	if !c.accepting() {
		c.gone(w)
		return
	}
	worker := r.URL.Query().Get("worker")
	c.touchWorker(worker)

	// Spool the upload first, verify from disk, and only rename a fully
	// verified stripe into place: a coordinator killed at any point here
	// leaves either nothing or a torn temp file, never a trusted torn
	// stripe.
	tmp, err := os.CreateTemp(c.spool, "upload-*")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer os.Remove(tmp.Name())
	if _, err := io.Copy(tmp, r.Body); err != nil {
		tmp.Close()
		c.table.reject(stripe)
		c.logf("fabric: stripe %d upload from %s torn mid-transfer (%v); requeued", stripe, worker, err)
		http.Error(w, fmt.Sprintf("upload torn: %v", err), http.StatusBadRequest)
		return
	}
	if _, err := tmp.Seek(0, io.SeekStart); err != nil {
		tmp.Close()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	digest, records, verr := c.verifyStripe(tmp, stripe)
	tmp.Close()
	if verr != nil {
		c.table.reject(stripe)
		c.logf("fabric: stripe %d upload from %s failed verification (%v); requeued", stripe, worker, verr)
		http.Error(w, fmt.Sprintf("verification failed: %v", verr), http.StatusBadRequest)
		return
	}

	first, cerr := c.table.complete(stripe, digest, worker)
	if cerr != nil {
		c.failJob(cerr)
		c.logf("fabric: FATAL: %v", cerr)
		http.Error(w, cerr.Error(), http.StatusConflict)
		return
	}
	if !first {
		c.logf("fabric: stripe %d re-uploaded by %s with matching digest; discarded", stripe, worker)
		writeJSON(w, http.StatusOK, ResultAck{Stripe: stripe, Duplicate: true, Records: records, Digest: digest})
		return
	}
	if c.beforePublish != nil {
		c.beforePublish(stripe)
	}
	if err := os.Rename(tmp.Name(), c.stripePath(stripe)); err != nil {
		// The stripe is taken but will never be published — fail the job
		// rather than wait forever for it.
		c.failJob(fmt.Errorf("fabric: spooling stripe %d: %w", stripe, err))
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Only now may allDone turn true: Run merges from the spool as soon
	// as it does, so every stripe's file must already be in place.
	c.table.publish()
	c.creditWorker(worker, records)
	counts, _ := c.table.snapshot()
	c.logf("fabric: stripe %d accepted from %s (%d records, digest %s) — %d/%d done",
		stripe, worker, records, digest, counts.Done, counts.Total)
	if c.table.allDone() {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
	writeJSON(w, http.StatusOK, ResultAck{Stripe: stripe, Records: records, Digest: digest})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, c.Status())
}

func (c *Coordinator) handleMerged(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	c.mu.Lock()
	ready := c.phase == PhaseComplete
	c.mu.Unlock()
	if !ready {
		http.Error(w, "merge not complete", http.StatusNotFound)
		return
	}
	f, err := os.Open(c.MergedPath())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	io.Copy(w, f)
}

// --- bookkeeping ----------------------------------------------------------

func (c *Coordinator) touchWorker(id string) {
	if id == "" {
		return
	}
	now := c.now()
	c.mu.Lock()
	ws := c.workers[id]
	if ws == nil {
		ws = &workerStats{first: now}
		c.workers[id] = ws
	}
	ws.last = now
	c.mu.Unlock()
}

func (c *Coordinator) creditWorker(id string, records int64) {
	if id == "" {
		return
	}
	c.mu.Lock()
	if ws := c.workers[id]; ws != nil {
		ws.stripes++
		ws.records += records
	}
	c.mu.Unlock()
}

func (c *Coordinator) failJob(err error) {
	c.mu.Lock()
	if c.phase != PhaseFailed {
		c.phase = PhaseFailed
		c.failure = err
	}
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Status reports the job's progress: stripe states, per-worker
// throughput, and the fabric's retry/steal counters.
func (c *Coordinator) Status() StatusReport {
	counts, counters := c.table.snapshot()
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := StatusReport{
		Job:           c.job,
		Phase:         c.phase,
		Stripes:       counts,
		Counters:      counters,
		MergedRecords: c.mergedRecords,
		MergedDigest:  c.mergedDigest,
	}
	if c.failure != nil {
		rep.Error = c.failure.Error()
	}
	if len(c.workers) > 0 {
		rep.Workers = make(map[string]WorkerReport, len(c.workers))
		for id, ws := range c.workers {
			wr := WorkerReport{
				Stripes:    ws.stripes,
				Records:    ws.records,
				IdleMillis: now.Sub(ws.last).Milliseconds(),
			}
			if window := ws.last.Sub(ws.first); window > 0 && ws.records > 0 {
				wr.RecordsPerSecond = float64(ws.records) / window.Seconds()
			}
			rep.Workers[id] = wr
		}
	}
	return rep
}

// --- the run loop and the merge -------------------------------------------

// Run drives the job: it expires stale leases on a ticker, waits for the
// last stripe, runs the canonical merge, and returns. A digest conflict
// or spool failure fails the job (ErrVerification). The HTTP handlers
// stay functional after Run returns — polling workers see 410 and drain.
func (c *Coordinator) Run(ctx context.Context) error {
	interval := c.ttl / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		c.mu.Lock()
		phase, failure := c.phase, c.failure
		c.mu.Unlock()
		if phase == PhaseFailed {
			return failure
		}
		if c.table.allDone() {
			break
		}
		select {
		case <-ctx.Done():
			err := context.Cause(ctx)
			c.failJob(fmt.Errorf("fabric: job aborted: %w", err))
			return err
		case <-c.wake:
		case <-ticker.C:
			if n := c.table.expire(); n > 0 {
				c.logf("fabric: %d lease(s) expired without a heartbeat; stripes requeued for stealing", n)
			}
		}
	}

	c.mu.Lock()
	c.phase = PhaseMerging
	c.mu.Unlock()
	c.logf("fabric: all %d stripes verified; merging", c.job.Stripes)
	if err := c.merge(ctx); err != nil {
		c.failJob(err)
		return err
	}
	c.mu.Lock()
	c.phase = PhaseComplete
	records, digest := c.mergedRecords, c.mergedDigest
	c.mu.Unlock()
	c.logf("fabric: job complete: %d records, digest %s (%s)", records, digest, c.MergedPath())
	return nil
}

// merge runs the canonical fan-in over the spooled stripes. The merged
// stream is written through a temp file and renamed, so the spool never
// holds a torn merged file.
func (c *Coordinator) merge(ctx context.Context) error {
	tmp, err := os.CreateTemp(c.spool, "merged-*")
	if err != nil {
		return fmt.Errorf("fabric: creating merged output: %w", err)
	}
	defer os.Remove(tmp.Name())

	readers := make([]io.Reader, c.job.Stripes)
	files := make([]*os.File, c.job.Stripes)
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}()
	for i := range readers {
		f, err := os.Open(c.stripePath(i))
		if err != nil {
			tmp.Close()
			return fmt.Errorf("%w: opening spooled stripe: %v", ErrVerification, err)
		}
		files[i], readers[i] = f, f
	}
	sum, err := core.MergeOutcomes(tmp, readers...)
	if err != nil {
		tmp.Close()
		return fmt.Errorf("%w: merging outcome streams: %v", ErrVerification, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("fabric: writing merged stream: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.MergedPath()); err != nil {
		return fmt.Errorf("fabric: publishing merged stream: %w", err)
	}
	c.mu.Lock()
	c.mergedRecords, c.mergedDigest = sum.Total, sum.Digest
	c.mu.Unlock()
	return nil
}
