// Package fabric is the cross-machine sweep fabric: a pull-based
// coordinator/worker subsystem that distributes ShardSpec stripes of an
// exhaustive sweep over HTTP and re-merges their outcome streams with
// internal/core's MergeOutcomes.
//
// The design leans on one property of the shard machinery: a sweep
// splits into M coordination-free stripes whose outcome streams are
// self-describing, digested, and sealed by a footer. The fabric never has
// to trust a worker — it verifies every uploaded stripe on receipt
// (record digests, stripe membership, sealed footer), so a crashed, slow,
// or corrupted worker is indistinguishable from an omission-faulty
// process in the source paper's sense, and is handled the same way: its
// lease expires and another worker steals the stripe. Duplicate
// completions resolve deterministically — the first sealed valid upload
// wins; two sealed valid uploads with different digests for one stripe
// mean the sweep itself is non-deterministic somewhere, and the job
// aborts loudly rather than merge an ambiguous result.
//
// The coordinator holds a JobSpec and a lease table over M stripes;
// workers pull leases, run stripes through Runner.RunShard, heartbeat,
// and upload sealed results with bounded retry, backoff and jitter. When
// every stripe lands, the coordinator runs the canonical MergeOutcomes
// fan-in, so the merged stream is bit-identical to a single-process run.
// No command runs the pair any more (multi-process sweeps are `ebashard
// -shard i/k` plus `ebashard -merge`): only the benchmark's loopback
// phase does, until ROADMAP item 3 deletes both.
//
// Model checks are not distributed here: their fan-in (MergeSystems,
// expansion, the checkers) runs over the whole system in one process
// whoever built the stripes, so the multi-process check path is
// `ebashard -check -shard i/k` per stripe and one `ebashard -check
// -merge`. This package keeps WriteVerdicts, the verdict writer that
// internal/serve, ebashard and the benchmark share.
//
// Wire protocol (all JSON unless noted):
//
//	GET  /job            → JobSpec
//	POST /lease          LeaseRequest → 200 LeaseGrant | 204 (nothing
//	                     leasable right now) | 410 JobDone
//	POST /heartbeat      HeartbeatRequest → 200 | 409 (lease lost) | 410
//	PUT  /result/{i}     raw outcome stream → 200 ResultAck | 400
//	                     (verification failed; stripe requeued) | 409
//	                     (digest conflict; job aborts) | 410
//	GET  /status         → StatusReport
//	GET  /merged         → merged stream (404 until complete)
package fabric

import (
	"errors"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/source"
)

// Error classes. Every error the fabric returns wraps one of these, so
// command-line front-ends can map failures to distinct exit codes with
// errors.Is: a verification failure (torn or tampered stripe, digest
// conflict, failed verdicts) is a property of the data and retrying won't
// fix it; a transport failure (coordinator unreachable after bounded
// retries) is a property of the network and a rerun might.
var (
	// ErrVerification marks integrity failures: a stripe that fails its
	// digest/footer verification, conflicting duplicate uploads, or failed
	// protocol verdicts.
	ErrVerification = errors.New("fabric: verification failure")
	// ErrTransport marks exhausted-retry network failures.
	ErrTransport = errors.New("fabric: transport failure")
	// ErrConflict marks two sealed valid uploads of one stripe with
	// different digests — a fatal job-level inconsistency. It is a
	// verification failure (errors.Is(err, ErrVerification) holds).
	ErrConflict = fmt.Errorf("%w: conflicting digests for one stripe", ErrVerification)
)

// JobKind names what a job distributes. SweepJob is the only kind: the
// field stays so the job's JSON says what it is.
type JobKind string

// SweepJob distributes Runner.RunShard stripes and merges their outcome
// streams with MergeOutcomes.
const SweepJob JobKind = "sweep"

// JobSpec is the one job a coordinator runs: which stack's exhaustive
// SO(t) enumeration to sweep, split into how many stripes.
// Stripes should comfortably exceed the worker count — fine striding is
// what turns the fixed i/k split into elastic load balancing, and what
// bounds the work lost when a worker dies to one stripe.
type JobSpec struct {
	// Kind is SweepJob.
	Kind JobKind `json:"kind"`
	// Stack names the protocol stack (see the registry); N, T its size.
	Stack string `json:"stack"`
	N     int    `json:"n"`
	T     int    `json:"t"`
	// Horizon optionally overrides the stack's execution horizon
	// (0 = the stack default, t+2).
	Horizon int `json:"horizon,omitempty"`
	// Stripes is M, the stripe count of the deterministic M-way split.
	Stripes int `json:"stripes"`
	// SpecCheck makes workers verify every run against the EBA
	// specification (a violation aborts the stripe).
	SpecCheck bool `json:"specCheck,omitempty"`
}

// Validate reports whether the spec names a runnable job.
func (j JobSpec) Validate() error {
	if j.Kind != SweepJob {
		return fmt.Errorf("fabric: job kind %q (want %q); to check a stack across processes, run `ebashard -check -shard i/k` per stripe, then `ebashard -check -merge`", j.Kind, SweepJob)
	}
	if j.Stack == "" {
		return fmt.Errorf("fabric: job names no stack")
	}
	if j.Stripes < 1 {
		return fmt.Errorf("fabric: job splits into %d stripes; need at least 1", j.Stripes)
	}
	if _, err := j.NewStack(); err != nil {
		return err
	}
	return nil
}

// NewStack constructs the job's protocol stack.
func (j JobSpec) NewStack() (core.Stack, error) {
	return core.NewStack(j.Stack, core.WithN(j.N), core.WithT(j.T), core.WithHorizon(j.Horizon))
}

// newSource returns a fresh canonical enumeration of the job's sweep.
// Sources are single-consumer and consumed by a stripe run, so every
// stripe attempt constructs its own.
func (j JobSpec) newSource(st core.Stack) (core.Source, error) {
	pats, err := source.SO(st.N, st.T, st.Horizon(), adversary.Options{})
	if err != nil {
		return nil, err
	}
	return source.CrossInits(pats, st.N)
}

// String renders the job for logs: "sweep fip n=4 t=1 ×16 stripes".
func (j JobSpec) String() string {
	return fmt.Sprintf("%s %s n=%d t=%d ×%d stripes", j.Kind, j.Stack, j.N, j.T, j.Stripes)
}

// --- wire types -----------------------------------------------------------

// LeaseRequest asks the coordinator for a stripe to run.
type LeaseRequest struct {
	// Worker identifies the requesting worker; leases, heartbeats, and
	// throughput accounting key on it.
	Worker string `json:"worker"`
}

// LeaseGrant assigns a stripe: the worker runs stripe Stripe of Stripes
// and must heartbeat within the TTL or the stripe is reassigned.
type LeaseGrant struct {
	Stripe    int   `json:"stripe"`
	Stripes   int   `json:"stripes"`
	TTLMillis int64 `json:"ttlMillis"`
}

// HeartbeatRequest renews a lease mid-stripe.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Stripe int    `json:"stripe"`
}

// ResultAck acknowledges an accepted stripe upload.
type ResultAck struct {
	Stripe int `json:"stripe"`
	// Duplicate reports the stripe was already complete with the same
	// digest (the upload was discarded; first sealed valid upload wins).
	Duplicate bool `json:"duplicate,omitempty"`
	// Records is the stripe's record count.
	Records int64 `json:"records"`
	// Digest is the stripe's accepted digest.
	Digest string `json:"digest"`
}

// JobDone is the body of a 410 response: the job no longer hands out
// work, either because it completed or because it failed.
type JobDone struct {
	Phase string `json:"phase"`
	Error string `json:"error,omitempty"`
}

// Coordinator phases, as reported by StatusReport.Phase and JobDone.
const (
	PhaseRunning  = "running"
	PhaseMerging  = "merging"
	PhaseComplete = "complete"
	PhaseFailed   = "failed"
)

// StripeCounts breaks the job's stripes down by state.
type StripeCounts struct {
	Total   int `json:"total"`
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
}

// Counters aggregates the fabric's failure-handling activity.
type Counters struct {
	// Leases counts granted leases (≥ Total when stripes were retried).
	Leases int64 `json:"leases"`
	// Expirations counts leases that stopped heartbeating and were
	// requeued; Steals counts requeued stripes later completed by a
	// different worker than the one that lost the lease.
	Expirations int64 `json:"expirations"`
	Steals      int64 `json:"steals"`
	// Rejects counts uploads that failed verification (torn, truncated,
	// or tampered stripes — requeued); Duplicates counts re-uploads of
	// already-complete stripes with matching digests (discarded).
	Rejects    int64 `json:"rejects"`
	Duplicates int64 `json:"duplicates"`
}

// WorkerReport is one worker's contribution, for the status endpoint.
type WorkerReport struct {
	// Stripes and Records count the worker's accepted uploads.
	Stripes int   `json:"stripes"`
	Records int64 `json:"records"`
	// RecordsPerSecond is Records over the worker's active window (first
	// contact to last), the per-worker throughput signal.
	RecordsPerSecond float64 `json:"recordsPerSecond"`
	// IdleMillis is the time since the worker was last heard from.
	IdleMillis int64 `json:"idleMillis"`
}

// StatusReport is the coordinator's JSON status: machine-readable for the
// CI smoke, human-readable enough to eyeball a fleet.
type StatusReport struct {
	Job      JobSpec                 `json:"job"`
	Phase    string                  `json:"phase"`
	Stripes  StripeCounts            `json:"stripes"`
	Workers  map[string]WorkerReport `json:"workers,omitempty"`
	Counters Counters                `json:"counters"`
	// MergedRecords and MergedDigest describe the merged stream (its
	// record count and chained digest) once Phase is "complete".
	MergedRecords int64  `json:"mergedRecords,omitempty"`
	MergedDigest  string `json:"mergedDigest,omitempty"`
	// Error carries the failure when Phase is "failed".
	Error string `json:"error,omitempty"`
}
