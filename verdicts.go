package eba

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/fabric"
)

// The verdict writer and the stream verifier shared by every command that
// reports on a sweep or a check: ebashard -check -merge, ebacheck and
// ebaserve write their verdict blocks through WriteVerdicts, so their
// outputs compare byte for byte. Multi-process sweeps and checks are
// ebashard -shard stripes plus one ebashard -merge.

// ErrFabricVerification marks failed protocol verdicts: WriteVerdicts
// wraps it after writing the full block. A rerun reproduces it, and
// ebashard and ebacheck map it to exit code 2 with errors.Is.
var ErrFabricVerification = fabric.ErrVerification

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
// record digests, stripe positions and the footer, and returns its summary.
func VerifyOutcomeStream(r io.Reader) (*ShardSummary, error) {
	return core.VerifyOutcomeStream(r)
}
