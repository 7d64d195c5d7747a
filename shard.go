package eba

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/episteme"
	"repro/internal/source"
)

// Deterministic shard-and-merge: run one sweep as K cooperating
// processes. A Source enumerates scenarios in one canonical order;
// SourceStride splits that order into K modular stripes, so K processes
// constructing the same source cover the sweep exactly once with no
// coordination. Runner.RunShard executes a stripe and emits a
// self-describing outcome stream; MergeOutcomes fans K streams back into
// canonical order, verifying the stripes partition the sweep (no gaps,
// no overlaps) — the merged stream is byte-identical to a single-process
// run's. BuildShardIndex and MergeSystems do the same for the model
// checker: per-shard interned indexes, merged by canonical class key
// into a System with bit-identical verdicts. cmd/ebashard drives both
// from the command line.

// SourceStride returns stripe shardIndex of a deterministic
// shardCount-way modular split of the source: the scenarios at global
// ordinals shardIndex, shardIndex+shardCount, … of the source's own
// enumeration order. The shardCount stripes partition the sweep exactly,
// so K processes each running one stripe of the same source reproduce a
// single-process sweep run for run. It composes with the other
// combinators (SourceLimit before Stride stripes the truncated sweep;
// after, it truncates the stripe).
func SourceStride(src Source, shardIndex, shardCount int) (Source, error) {
	return source.Stride(src, shardIndex, shardCount)
}

// ShardSpec names one stripe of a deterministically split sweep ("i/k").
// The zero value is the whole sweep. It implements flag.Value and
// encoding.TextMarshaler/TextUnmarshaler, so it round-trips through
// flags, environment variables, and config files; cmd/ebashard reads its
// default from $EBA_SHARD.
type ShardSpec = source.ShardSpec

// ParseShardSpec parses the "i/k" form; the empty string is the whole
// sweep (0/1).
func ParseShardSpec(s string) (ShardSpec, error) { return source.ParseShardSpec(s) }

// ShardEnvVar is the conventional environment variable sharded tools
// read a default ShardSpec from.
const ShardEnvVar = source.ShardEnvVar

// Outcome-stream types re-exported from core: Runner.RunShard writes a
// stream of these, MergeOutcomes verifies and fans K of them back in.
type (
	// ShardHeader opens a shard's outcome stream.
	ShardHeader = core.ShardHeader
	// OutcomeRecord is one digested scenario outcome of a sharded sweep.
	OutcomeRecord = core.OutcomeRecord
	// ShardFooter seals a stream with its record count and chained digest.
	ShardFooter = core.ShardFooter
	// ShardSummary reports a completed Runner.RunShard.
	ShardSummary = core.ShardSummary
	// MergeSummary reports a completed MergeOutcomes.
	MergeSummary = core.MergeSummary
	// OutcomeReader decodes and verifies one shard's outcome stream.
	OutcomeReader = core.OutcomeReader
	// ErrorSource is a Source that can fail mid-stream; StreamFrom
	// propagates its error as the stream's cancellation cause.
	ErrorSource = core.ErrorSource
)

// NewOutcomeReader decodes one shard's outcome stream, verifying record
// digests, stripe positions and the sealing footer as it reads.
func NewOutcomeReader(r io.Reader) (*OutcomeReader, error) { return core.NewOutcomeReader(r) }

// MergeOutcomes fans K shard outcome streams (in any order) back into
// the canonical enumeration order, verifying that they partition the
// sweep exactly: consistent headers, K distinct stripes, intact digests,
// ordinals covering 0..total-1 with no gap and no overlap, sealed
// footers. When w is non-nil the merged stream is written to it as the
// single stripe of a 1-way split — byte-identical to what one process
// running the whole sweep writes, so sharded and unsharded runs compare
// with cmp(1).
func MergeOutcomes(w io.Writer, streams ...io.Reader) (*MergeSummary, error) {
	return core.MergeOutcomes(w, streams...)
}

// ShardIndex is one shard's serializable contribution to a sharded model
// check: its stripe's runs (reduced to decision ledgers) plus the
// interned (time, agent) class tables keyed by canonical local-state
// fingerprints.
type ShardIndex = episteme.ShardIndex

// BuildShardIndex enumerates stripe shardIndex of a shardCount-way split
// of the stack's exhaustive sweep — exactly the stripe of the
// enumeration BuildSystem performs whole — and exports the stripe's
// interned index for MergeSystems; where BuildSystem takes the symmetry
// quotient (fip), a stripe of the representative sweep (ShardIndex.Quotient).
func BuildShardIndex(ctx context.Context, stack Stack, shardIndex, shardCount int, opts ...CheckOption) (*ShardIndex, error) {
	idx, err := episteme.BuildShardIndex(ctx, episteme.ContextFor(stack), stack.Action, shardIndex, shardCount, opts...)
	if err != nil {
		return nil, err
	}
	idx.Stack = stack.Name
	return idx, nil
}

// MergeSystems re-interns K partial indexes (one per stripe, any order)
// into one System whose class tables and verdicts — CheckImplements,
// CheckSafety, CheckOptimalityFIP — are bit-identical to the
// single-process BuildSystem's. It verifies the stripes partition one
// sweep: K distinct shards of a K-way split agreeing on (n, t, horizon),
// with stripe lengths consistent with one total. Merged Systems carry no
// state traces: System.Key and every checker ride the interned index. The
// merge of quotiented stripes (System.Quotiented; every fip stripe is one)
// is checkable only after ExpandQuotient; WriteVerdicts expands by itself.
func MergeSystems(ctx context.Context, shards []*ShardIndex, opts ...CheckOption) (*System, error) {
	return episteme.MergeSystems(ctx, shards, opts...)
}

// ExpandQuotient rebuilds the full interpreted system from a
// symmetry-quotiented one — the System MergeSystems returns when the
// shards are quotiented (System.Quotiented). The expansion re-enumerates
// the stack's sweep without executing it, synthesizing each run and its
// interned local-state classes from the run's orbit representative via
// agent relabeling; the result is bit-identical to the unquotiented
// BuildSystem's, so every verdict downstream agrees with the full sweep.
// stack must be the stack the shards enumerated (the expansion
// cross-checks every orbit and fails loudly on a mismatch).
func ExpandQuotient(ctx context.Context, sys *System, stack Stack) (*System, error) {
	return episteme.ExpandQuotient(ctx, sys, episteme.ContextFor(stack))
}

// WriteShardIndex serializes a shard index as JSON; ReadShardIndex is
// its inverse.
func WriteShardIndex(w io.Writer, idx *ShardIndex) error { return episteme.WriteShardIndex(w, idx) }

// ReadShardIndex deserializes and validates a WriteShardIndex stream.
func ReadShardIndex(r io.Reader) (*ShardIndex, error) { return episteme.ReadShardIndex(r) }
