package eba

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/fabric"
)

// The cross-machine sweep fabric: distribute the deterministic sweep
// stripes of shard.go over HTTP. A Coordinator (cmd/ebacoord) holds one
// JobSpec and a lease table over its stripes; Workers (ebashard -worker)
// pull leases, run stripes through the same RunShard path a single
// process uses, and upload sealed results. Every upload is verified on
// receipt; a worker that stops heartbeating loses its lease and the
// stripe is stolen; the coordinator's final merge is the canonical
// MergeOutcomes fan-in, so the fabric's merged stream is bit-identical to
// a single-process run's. Model checks spread over processes with
// BuildShardIndex per stripe and one MergeSystems (ebashard -check), not
// through the fabric.

// Fabric error classes for exit-code mapping with errors.Is: retrying a
// FabricVerification failure reproduces it, retrying a FabricTransport
// failure might not.
var (
	// ErrFabricVerification marks integrity failures: torn or tampered
	// stripes, conflicting duplicate uploads, failed protocol verdicts.
	ErrFabricVerification = fabric.ErrVerification
	// ErrFabricTransport marks exhausted-retry network failures.
	ErrFabricTransport = fabric.ErrTransport
	// ErrFabricConflict marks two sealed valid uploads of one stripe with
	// different digests (a verification failure; the job aborts).
	ErrFabricConflict = fabric.ErrConflict
)

// JobKind names what a fabric job distributes.
type JobKind = fabric.JobKind

// JobSweep distributes sweep outcome streams; it is the only JobKind.
const JobSweep = fabric.SweepJob

// JobSpec is the one job a fabric coordinator distributes.
type JobSpec = fabric.JobSpec

// Coordinator serves a fabric job: lease out stripes, verify uploads,
// reassign silent workers' stripes, and run the canonical merge.
type (
	Coordinator       = fabric.Coordinator
	CoordinatorConfig = fabric.CoordinatorConfig
)

// NewCoordinator validates the job, prepares the spool directory, and
// recovers any verified stripes a previous coordinator spooled.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) { return fabric.NewCoordinator(cfg) }

// FabricWorker pulls and runs stripes for one coordinator with bounded
// retry, heartbeats, and graceful draining.
type (
	FabricWorker  = fabric.Worker
	WorkerConfig  = fabric.WorkerConfig
	WorkerSummary = fabric.WorkerSummary
)

// NewFabricWorker validates the configuration and returns a worker.
func NewFabricWorker(cfg WorkerConfig) (*FabricWorker, error) { return fabric.NewWorker(cfg) }

// Fabric status reporting, as served by the coordinator's /status.
type (
	FabricStatus   = fabric.StatusReport
	FabricCounters = fabric.Counters
	StripeCounts   = fabric.StripeCounts
	WorkerReport   = fabric.WorkerReport
)

// Coordinator phases, as reported by FabricStatus.Phase.
const (
	FabricRunning  = fabric.PhaseRunning
	FabricMerging  = fabric.PhaseMerging
	FabricComplete = fabric.PhaseComplete
	FabricFailed   = fabric.PhaseFailed
)

// VerdictOptions tunes WriteVerdicts.
type VerdictOptions = fabric.VerdictOptions

// WriteVerdicts writes the deterministic verdict block for a merged (or
// directly built) System — the one verdict writer shared by ebashard
// -check -merge, ebacheck and ebaserve, so their outputs compare byte
// for byte. Failed verdicts return an error wrapping
// ErrFabricVerification after the full block is written.
func WriteVerdicts(ctx context.Context, w io.Writer, sys *System, stackName string, opts VerdictOptions) error {
	return fabric.WriteVerdicts(ctx, w, sys, stackName, opts)
}

// VerifyOutcomeStream reads a shard outcome stream end to end, verifying
// record digests and the sealing footer, and returns its summary — the
// check a fabric coordinator applies to every sweep upload.
func VerifyOutcomeStream(r io.Reader) (*ShardSummary, error) {
	return core.VerifyOutcomeStream(r)
}
