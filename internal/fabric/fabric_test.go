package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httplimit"
)

// testJob is the suite's standard sweep: small enough that a stripe runs
// in milliseconds, striped finely enough that stealing has room to work.
func testJob(stripes int) JobSpec {
	return JobSpec{Kind: SweepJob, Stack: "min", N: 3, T: 1, Stripes: stripes}
}

// newTestCoordinator builds a coordinator over a fresh spool and serves
// its handler from an httptest server.
func newTestCoordinator(t *testing.T, job JobSpec, ttl time.Duration) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := NewCoordinator(CoordinatorConfig{
		Job:      job,
		SpoolDir: t.TempDir(),
		LeaseTTL: ttl,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, srv
}

// singleSweepStream runs the whole job in-process as the single stripe
// of a 1-way split — the byte-for-byte reference the fabric must match.
func singleSweepStream(t *testing.T, job JobSpec) []byte {
	t.Helper()
	st, err := job.NewStack()
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	src, err := job.newSource(st)
	if err != nil {
		t.Fatalf("newSource: %v", err)
	}
	var buf bytes.Buffer
	if _, err := core.NewRunner(st).RunShard(context.Background(), src, 0, 1, &buf); err != nil {
		t.Fatalf("RunShard 0/1: %v", err)
	}
	return buf.Bytes()
}

// stripePayload runs one stripe of the job in-process, producing exactly
// the sealed upload a well-behaved worker would send.
func stripePayload(t *testing.T, job JobSpec, stripe int) []byte {
	t.Helper()
	st, err := job.NewStack()
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	src, err := job.newSource(st)
	if err != nil {
		t.Fatalf("newSource: %v", err)
	}
	var buf bytes.Buffer
	if _, err := core.NewRunner(st).RunShard(context.Background(), src, stripe, job.Stripes, &buf); err != nil {
		t.Fatalf("RunShard %d/%d: %v", stripe, job.Stripes, err)
	}
	return buf.Bytes()
}

// putStripe uploads a payload directly, returning the HTTP status.
func putStripe(t *testing.T, baseURL string, stripe int, worker string, payload []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut,
		fmt.Sprintf("%s/result/%d?worker=%s", baseURL, stripe, worker), bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("building PUT: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT /result/%d: %v", stripe, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// leaseStripe asks for a lease directly, returning the grant and status.
func leaseStripe(t *testing.T, baseURL, worker string) (LeaseGrant, int) {
	t.Helper()
	body, _ := json.Marshal(LeaseRequest{Worker: worker})
	resp, err := http.Post(baseURL+"/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /lease: %v", err)
	}
	defer resp.Body.Close()
	var grant LeaseGrant
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&grant); err != nil {
			t.Fatalf("decoding grant: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return grant, resp.StatusCode
}

// runWorkers runs n fabric workers against the server and waits for all
// of them; any worker error fails the test.
func runWorkers(t *testing.T, ctx context.Context, url string, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		w, err := NewWorker(WorkerConfig{
			Coordinator:  url,
			ID:           fmt.Sprintf("w%d", i),
			PollInterval: 20 * time.Millisecond,
			BaseBackoff:  5 * time.Millisecond,
			Logf:         t.Logf,
		})
		if err != nil {
			t.Fatalf("NewWorker: %v", err)
		}
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			_, errs[i] = w.Run(ctx)
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
}

// --- lease table ----------------------------------------------------------

// TestLeaseTableExpiryStealDuplicateConflict drives the lease table with
// a fake clock through the full failure-handling repertoire: heartbeat
// renewal, TTL expiry, reassignment counted as a steal, duplicate
// resolution by digest, and the fatal conflicting-digest case.
func TestLeaseTableExpiryStealDuplicateConflict(t *testing.T) {
	now := time.Unix(1000, 0)
	tbl := newLeaseTable(3, 10*time.Second, func() time.Time { return now })

	s, ok := tbl.lease("w1")
	if !ok || s != 0 {
		t.Fatalf("first lease = %d, %v; want stripe 0", s, ok)
	}

	// Heartbeats extend the deadline: 8s in, a renewal buys 10 more.
	now = now.Add(8 * time.Second)
	if !tbl.heartbeat("w1", 0) {
		t.Fatal("heartbeat within TTL rejected")
	}
	now = now.Add(8 * time.Second)
	if n := tbl.expire(); n != 0 {
		t.Fatalf("expired %d leases 8s after a heartbeat with a 10s TTL", n)
	}

	// Silence past the TTL: the stripe is requeued and re-granted.
	now = now.Add(3 * time.Second)
	if s, ok := tbl.lease("w2"); !ok || s != 0 {
		t.Fatalf("post-expiry lease = %d, %v; want the requeued stripe 0", s, ok)
	}
	if tbl.heartbeat("w1", 0) {
		t.Fatal("the dead worker's heartbeat renewed a stolen lease")
	}

	// The thief completes the stripe: that's a steal.
	if first, err := tbl.complete(0, "d0", "w2"); err != nil || !first {
		t.Fatalf("complete(0) = %v, %v", first, err)
	}
	// The original worker's late upload with the same digest is a no-op.
	if first, err := tbl.complete(0, "d0", "w1"); err != nil || first {
		t.Fatalf("duplicate complete(0) = %v, %v; want discarded", first, err)
	}
	// A different digest for a done stripe is fatal.
	if _, err := tbl.complete(0, "d0-tampered", "w1"); !errors.Is(err, ErrConflict) || !errors.Is(err, ErrVerification) {
		t.Fatalf("conflicting complete(0) err = %v, want ErrConflict (and ErrVerification)", err)
	}

	// Rejection requeues a leased stripe.
	if s, ok := tbl.lease("w3"); !ok || s != 1 {
		t.Fatalf("lease = %d, %v; want stripe 1", s, ok)
	}
	tbl.reject(1)
	if s, ok := tbl.lease("w3"); !ok || s != 1 {
		t.Fatalf("post-reject lease = %d, %v; want stripe 1 again", s, ok)
	}

	if tbl.allDone() {
		t.Fatal("allDone with stripes outstanding")
	}
	tbl.complete(1, "d1", "w3")
	tbl.complete(2, "d2", "w3")
	if tbl.allDone() {
		t.Fatal("allDone before the completed stripes were published")
	}
	for range 3 {
		tbl.publish()
	}
	if !tbl.allDone() {
		t.Fatal("not allDone with every stripe complete and published")
	}

	counts, counters := tbl.snapshot()
	if counts.Done != 3 || counts.Pending != 0 || counts.Leased != 0 {
		t.Fatalf("counts = %+v", counts)
	}
	if counters.Expirations != 1 || counters.Steals != 1 || counters.Duplicates != 1 || counters.Rejects != 1 {
		t.Fatalf("counters = %+v", counters)
	}
}

// --- loopback fabric ------------------------------------------------------

// TestFabricSweepStealsFromSilentWorker is the subsystem's acceptance
// test: a worker leases a stripe and goes silent (from the coordinator's
// side, indistinguishable from SIGKILL — silence IS the failure), the
// lease expires, a surviving worker steals the stripe, and the merged
// stream is byte-identical to a single-process run.
func TestFabricSweepStealsFromSilentWorker(t *testing.T) {
	job := testJob(8)
	c, srv := newTestCoordinator(t, job, 250*time.Millisecond)

	// The victim takes a lease and is never heard from again.
	grant, status := leaseStripe(t, srv.URL, "victim")
	if status != http.StatusOK {
		t.Fatalf("victim lease status = %d", status)
	}

	runErr := make(chan error, 1)
	go func() { runErr <- c.Run(context.Background()) }()
	runWorkers(t, context.Background(), srv.URL, 3)
	if err := <-runErr; err != nil {
		t.Fatalf("coordinator Run: %v", err)
	}

	st := c.Status()
	if st.Phase != PhaseComplete {
		t.Fatalf("phase = %s, want %s", st.Phase, PhaseComplete)
	}
	if st.Counters.Expirations < 1 {
		t.Fatalf("counters = %+v; the victim's lease never expired", st.Counters)
	}
	if st.Counters.Steals < 1 {
		t.Fatalf("counters = %+v; stripe %d was never stolen", st.Counters, grant.Stripe)
	}

	merged, err := os.ReadFile(c.MergedPath())
	if err != nil {
		t.Fatalf("reading merged stream: %v", err)
	}
	if want := singleSweepStream(t, job); !bytes.Equal(merged, want) {
		t.Fatal("fabric-merged stream differs from the single-process stream")
	}

	// The /merged endpoint serves the same bytes.
	resp, err := http.Get(srv.URL + "/merged")
	if err != nil {
		t.Fatalf("GET /merged: %v", err)
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(served, merged) {
		t.Fatalf("GET /merged: status %d, %d bytes; want the merged stream", resp.StatusCode, len(served))
	}
}

// TestCoordinatorRestartResumes kills a coordinator (by building a fresh
// one over the same spool) after two verified stripes landed and a third
// was left torn on disk, and checks the successor trusts the intact
// stripes, sets the torn one aside, and finishes with only the missing
// work — to the same bytes as a single-process run.
func TestCoordinatorRestartResumes(t *testing.T) {
	job := testJob(4)
	spool := t.TempDir()

	first, err := NewCoordinator(CoordinatorConfig{Job: job, SpoolDir: spool, LeaseTTL: time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv1 := httptest.NewServer(first.Handler())
	if got := putStripe(t, srv1.URL, 0, "w0", stripePayload(t, job, 0)); got != http.StatusOK {
		t.Fatalf("uploading stripe 0: status %d", got)
	}
	if got := putStripe(t, srv1.URL, 1, "w0", stripePayload(t, job, 1)); got != http.StatusOK {
		t.Fatalf("uploading stripe 1: status %d", got)
	}
	srv1.Close()

	// A torn stripe file, as a crash mid-write would leave (the real
	// coordinator writes through temp+rename, so this is the defense in
	// depth for disks that lie).
	p2 := stripePayload(t, job, 2)
	torn := filepath.Join(spool, "stripe-0002.jsonl")
	if err := os.WriteFile(torn, p2[:len(p2)/2], 0o644); err != nil {
		t.Fatalf("writing torn stripe: %v", err)
	}

	second, err := NewCoordinator(CoordinatorConfig{Job: job, SpoolDir: spool, LeaseTTL: time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatalf("restarted NewCoordinator: %v", err)
	}
	if _, err := os.Stat(torn + ".rejected"); err != nil {
		t.Fatalf("torn stripe not set aside: %v", err)
	}
	counts, _ := second.table.snapshot()
	if counts.Done != 2 {
		t.Fatalf("recovered %d stripes, want 2", counts.Done)
	}

	srv2 := httptest.NewServer(second.Handler())
	defer srv2.Close()
	runErr := make(chan error, 1)
	go func() { runErr <- second.Run(context.Background()) }()
	runWorkers(t, context.Background(), srv2.URL, 1)
	if err := <-runErr; err != nil {
		t.Fatalf("restarted coordinator Run: %v", err)
	}
	merged, err := os.ReadFile(second.MergedPath())
	if err != nil {
		t.Fatalf("reading merged stream: %v", err)
	}
	if want := singleSweepStream(t, job); !bytes.Equal(merged, want) {
		t.Fatal("restart-resumed merge differs from the single-process stream")
	}
}

// TestDuplicateAndConflictingUploads pins the duplicate-resolution
// contract at the HTTP surface: a re-upload with the same digest is
// discarded with an acknowledgment, and a sealed VALID upload whose
// digest disagrees with the accepted one fails the whole job — loudly,
// as ErrConflict — because it means the sweep is non-deterministic
// somewhere, and no merge should paper over that.
func TestDuplicateAndConflictingUploads(t *testing.T) {
	job := testJob(2)
	c, srv := newTestCoordinator(t, job, time.Minute)

	p0 := stripePayload(t, job, 0)
	if got := putStripe(t, srv.URL, 0, "w-a", p0); got != http.StatusOK {
		t.Fatalf("first upload: status %d", got)
	}
	// Same bytes again: duplicate, acknowledged and discarded.
	if got := putStripe(t, srv.URL, 0, "w-b", p0); got != http.StatusOK {
		t.Fatalf("duplicate upload: status %d", got)
	}
	if st := c.Status(); st.Counters.Duplicates != 1 {
		t.Fatalf("counters = %+v, want one duplicate", st.Counters)
	}

	// A valid-but-different stream for stripe 0: same records re-sealed
	// after a mutation, digests recomputed, so it passes verification and
	// exercises the digest-conflict path, not the tamper path.
	or, err := core.NewOutcomeReader(bytes.NewReader(p0))
	if err != nil {
		t.Fatalf("NewOutcomeReader: %v", err)
	}
	var recs []core.OutcomeRecord
	for {
		rec, err := or.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		recs = append(recs, *rec)
	}
	recs[0].Rounds[0]++
	var conflicting bytes.Buffer
	if _, err := core.WriteOutcomeStream(&conflicting, or.Header(), recs); err != nil {
		t.Fatalf("WriteOutcomeStream: %v", err)
	}
	if got := putStripe(t, srv.URL, 0, "w-c", conflicting.Bytes()); got != http.StatusConflict {
		t.Fatalf("conflicting upload: status %d, want %d", got, http.StatusConflict)
	}

	// The job is failed: Run reports the conflict, new leases see 410.
	err = c.Run(context.Background())
	if !errors.Is(err, ErrConflict) || !errors.Is(err, ErrVerification) {
		t.Fatalf("Run after conflict = %v, want ErrConflict", err)
	}
	if _, status := leaseStripe(t, srv.URL, "late"); status != http.StatusGone {
		t.Fatalf("lease against a failed job: status %d, want %d", status, http.StatusGone)
	}
	// A worker that polls in now surfaces the failure as ErrVerification.
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "late-worker", Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	if _, werr := w.Run(context.Background()); !errors.Is(werr, ErrVerification) {
		t.Fatalf("late worker Run = %v, want ErrVerification", werr)
	}
}

// TestStripeDoneOnlyOncePublished holds stripe 0's upload between its
// completion in the lease table and its rename into the spool while
// stripe 1's upload runs to the end. The job must not count as done — Run
// merges from the spool the moment it does, and stripe 0's file is not
// there yet.
func TestStripeDoneOnlyOncePublished(t *testing.T) {
	job := testJob(2)
	held, release := make(chan struct{}), make(chan struct{})
	c, err := NewCoordinator(CoordinatorConfig{
		Job:      job,
		SpoolDir: t.TempDir(),
		LeaseTTL: time.Minute,
		Logf:     t.Logf,
		beforePublish: func(stripe int) {
			if stripe == 0 {
				close(held)
				<-release
			}
		},
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	runErr := make(chan error, 1)
	go func() { runErr <- c.Run(context.Background()) }()

	p0, p1 := stripePayload(t, job, 0), stripePayload(t, job, 1)
	status0 := make(chan int, 1)
	go func() { status0 <- putStripe(t, srv.URL, 0, "w-slow", p0) }()
	<-held
	if got := putStripe(t, srv.URL, 1, "w-fast", p1); got != http.StatusOK {
		t.Fatalf("stripe 1 upload: status %d", got)
	}
	// A duplicate of the held stripe is still recognised and discarded.
	if got := putStripe(t, srv.URL, 0, "w-dup", p0); got != http.StatusOK {
		t.Fatalf("duplicate of the held stripe: status %d", got)
	}
	if st := c.Status(); st.Phase != PhaseRunning || st.Stripes.Done != 1 || st.Counters.Duplicates != 1 {
		t.Fatalf("with stripe 0 unpublished: phase %q, stripes %+v, counters %+v; want running, 1 done, 1 duplicate",
			st.Phase, st.Stripes, st.Counters)
	}
	if c.table.allDone() {
		t.Fatal("allDone while stripe 0's file is not in the spool")
	}

	close(release)
	if got := <-status0; got != http.StatusOK {
		t.Fatalf("stripe 0 upload: status %d", got)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
	merged, err := os.ReadFile(c.MergedPath())
	if err != nil {
		t.Fatalf("reading merged stream: %v", err)
	}
	if !bytes.Equal(merged, singleSweepStream(t, job)) {
		t.Fatal("merged stream differs from the single-process sweep")
	}
}

// TestTamperedUploadRequeued checks a tampered (digest-broken) upload is
// rejected with 400 and the stripe goes back into circulation.
func TestTamperedUploadRequeued(t *testing.T) {
	job := testJob(2)
	c, srv := newTestCoordinator(t, job, time.Minute)

	p0 := stripePayload(t, job, 0)
	tampered := bytes.Replace(p0, []byte(`"sent":`), []byte(`"sent":9`), 1)
	if bytes.Equal(tampered, p0) {
		t.Fatal("tamper did not change the stream")
	}
	if got := putStripe(t, srv.URL, 0, "w-evil", tampered); got != http.StatusBadRequest {
		t.Fatalf("tampered upload: status %d, want %d", got, http.StatusBadRequest)
	}
	st := c.Status()
	if st.Counters.Rejects != 1 {
		t.Fatalf("counters = %+v, want one reject", st.Counters)
	}
	if st.Stripes.Done != 0 {
		t.Fatalf("stripes = %+v; a tampered upload completed a stripe", st.Stripes)
	}
	// The honest upload still lands.
	if got := putStripe(t, srv.URL, 0, "w-honest", p0); got != http.StatusOK {
		t.Fatalf("honest upload after tamper: status %d", got)
	}
}

// TestWorkerTransportExhaustion checks a worker facing a dead
// coordinator gives up after its bounded retries with ErrTransport —
// the exit-code-3 class.
func TestWorkerTransportExhaustion(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // nothing listens here any more

	w, err := NewWorker(WorkerConfig{
		Coordinator: url,
		MaxRetries:  2,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	if _, err := w.Run(context.Background()); !errors.Is(err, ErrTransport) {
		t.Fatalf("Run against a dead coordinator = %v, want ErrTransport", err)
	}
}

// TestWorkerRetriesTransientErrors fronts the coordinator with a flaky
// proxy that 500s the first few requests and checks the worker's backoff
// rides through them to a complete, byte-identical job.
func TestWorkerRetriesTransientErrors(t *testing.T) {
	job := testJob(2)
	c, _ := newTestCoordinator(t, job, 2*time.Second)

	var mu sync.Mutex
	failures := 3
	inner := c.Handler()
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		fail := failures > 0
		if fail {
			failures--
		}
		mu.Unlock()
		if fail {
			http.Error(w, "synthetic outage", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	runErr := make(chan error, 1)
	go func() { runErr <- c.Run(context.Background()) }()
	w, err := NewWorker(WorkerConfig{
		Coordinator: flaky.URL,
		ID:          "flaky-rider",
		MaxRetries:  8,
		BaseBackoff: time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	sum, err := w.Run(context.Background())
	if err != nil {
		t.Fatalf("worker Run through flaky proxy: %v", err)
	}
	if sum.Stripes != 2 {
		t.Fatalf("worker completed %d stripes, want 2", sum.Stripes)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("coordinator Run: %v", err)
	}
	merged, err := os.ReadFile(c.MergedPath())
	if err != nil {
		t.Fatalf("reading merged stream: %v", err)
	}
	if want := singleSweepStream(t, job); !bytes.Equal(merged, want) {
		t.Fatal("merged stream differs from the single-process stream")
	}
}

// TestWorkerDrain checks Drain ends an idle worker promptly (mid-poll,
// with the only stripe leased elsewhere) with a clean summary.
func TestWorkerDrain(t *testing.T) {
	job := testJob(1)
	_, srv := newTestCoordinator(t, job, time.Minute)
	if _, status := leaseStripe(t, srv.URL, "hog"); status != http.StatusOK {
		t.Fatalf("hog lease status = %d", status)
	}

	w, err := NewWorker(WorkerConfig{
		Coordinator:  srv.URL,
		ID:           "drainee",
		PollInterval: time.Hour, // only a Drain wake can end the poll sleep
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	done := make(chan struct{})
	var sum *WorkerSummary
	var runErr error
	go func() {
		defer close(done)
		sum, runErr = w.Run(context.Background())
	}()
	time.Sleep(50 * time.Millisecond) // let it reach the poll sleep
	w.Drain()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("drained worker did not return")
	}
	if runErr != nil {
		t.Fatalf("drained worker Run: %v", runErr)
	}
	if sum.Stripes != 0 {
		t.Fatalf("drained worker claims %d stripes", sum.Stripes)
	}
}

// TestJobSpecValidate pins the spec-level rejections.
func TestJobSpecValidate(t *testing.T) {
	bad := []JobSpec{
		{Kind: "weave", Stack: "min", N: 3, T: 1, Stripes: 2},
		{Kind: SweepJob, Stack: "", N: 3, T: 1, Stripes: 2},
		{Kind: SweepJob, Stack: "min", N: 3, T: 1, Stripes: 0},
		{Kind: SweepJob, Stack: "no-such-stack", N: 3, T: 1, Stripes: 2},
		{Kind: "check", Stack: "min", N: 3, T: 1, Stripes: 2},               // checks run as ebashard -check stripes + -merge
		{Kind: SweepJob, Stack: "fip", N: 2, T: 2, Stripes: 2},              // t ≥ n: every worker panicked
		{Kind: SweepJob, Stack: "min", N: 3, T: 5, Stripes: 2},              // t ≥ n
		{Kind: SweepJob, Stack: "min", N: 3, T: 1, Horizon: -5, Stripes: 2}, // was "the default"
	}
	for _, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid job", j)
		}
	}
	check := JobSpec{Kind: "check", Stack: "min", N: 3, T: 1, Stripes: 2}
	if err := check.Validate(); err == nil || !strings.Contains(err.Error(), "ebashard -check -merge") {
		t.Errorf("Validate(check job) = %v; want the refusal that names ebashard -check -merge", err)
	}
	if err := testJob(4).Validate(); err != nil {
		t.Errorf("Validate(testJob) = %v", err)
	}
	if s := testJob(4).String(); !strings.Contains(s, "min") || !strings.Contains(s, "4") {
		t.Errorf("String() = %q", s)
	}
}

// TestCoordinatorBoundsRequestBodies: a lease or heartbeat body that
// outgrows the shared request limit is refused with a 4xx instead of
// being read through. The oversized bodies are valid requests behind a
// megabyte of whitespace, which an unbounded decoder accepts.
func TestCoordinatorBoundsRequestBodies(t *testing.T) {
	_, srv := newTestCoordinator(t, testJob(2), time.Minute)
	padding := strings.Repeat(" ", httplimit.MaxJSONBody)
	for path, request := range map[string]string{
		"/lease":     `{"worker":"w0"}`,
		"/heartbeat": `{"worker":"w0","stripe":0}`,
	} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(padding+request))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode > 499 {
			t.Errorf("%s: an oversized body answers %d, want a 4xx", path, resp.StatusCode)
		}
	}
	if _, status := leaseStripe(t, srv.URL, "w0"); status != http.StatusOK {
		t.Fatalf("a plain lease after the refusals answers %d", status)
	}
}
