package core

// The outcome stream's previous codec, kept verbatim as the oracle the
// hand-written one in codec.go is pinned against: records written by
// encoding/json over the structs, digests rendered by fmt into a hash,
// and a reader that decodes every line three times. Nothing outside the
// tests uses it.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/model"
)

func oldComputeDigest(r *OutcomeRecord) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%s|%v|%v|%v|%d|%d|%d|%d",
		r.Ordinal, r.Pattern, r.Inits, r.Decisions, r.Rounds,
		r.Stats.MessagesSent, r.Stats.MessagesDelivered, r.Stats.BitsSent, r.Stats.BitsDelivered)
	if r.Mult > 1 {
		fmt.Fprintf(h, "|m%d", r.Mult)
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

type oldDigestChain struct{ h [sha256.Size]byte }

func (c *oldDigestChain) add(recordDigest string) {
	h := sha256.New()
	h.Write(c.h[:])
	h.Write([]byte(recordDigest))
	h.Sum(c.h[:0])
}

func (c *oldDigestChain) hex() string { return hex.EncodeToString(c.h[:16]) }

type oldOutcomeReader struct {
	dec      *json.Decoder
	header   ShardHeader
	chain    oldDigestChain
	records  int64
	weighted int64
	footer   *ShardFooter
}

func newOldOutcomeReader(r io.Reader) (*oldOutcomeReader, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var hdr ShardHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("core: reading outcome-stream header: %w", err)
	}
	if hdr.Kind != outcomeKind {
		return nil, fmt.Errorf("core: not an outcome stream (kind %q, want %q)", hdr.Kind, outcomeKind)
	}
	if hdr.Version != outcomeVersion {
		return nil, fmt.Errorf("core: outcome-stream version %d, this reader speaks %d", hdr.Version, outcomeVersion)
	}
	if hdr.Shards < 1 || hdr.Shard < 0 || hdr.Shard >= hdr.Shards {
		return nil, fmt.Errorf("core: outcome stream declares shard %d of %d", hdr.Shard, hdr.Shards)
	}
	return &oldOutcomeReader{dec: dec, header: hdr}, nil
}

func (or *oldOutcomeReader) Next() (*OutcomeRecord, error) {
	if or.footer != nil {
		return nil, io.EOF
	}
	var raw json.RawMessage
	if err := or.dec.Decode(&raw); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("core: shard %d/%d: stream truncated after %d records (no footer)",
				or.header.Shard, or.header.Shards, or.records)
		}
		return nil, fmt.Errorf("core: shard %d/%d: decoding record %d: %w",
			or.header.Shard, or.header.Shards, or.records, err)
	}
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, fmt.Errorf("core: shard %d/%d: decoding record %d: %w",
			or.header.Shard, or.header.Shards, or.records, err)
	}
	if probe.Kind == footerKind {
		var foot ShardFooter
		if err := json.Unmarshal(raw, &foot); err != nil {
			return nil, fmt.Errorf("core: shard %d/%d: decoding footer: %w", or.header.Shard, or.header.Shards, err)
		}
		if foot.Records != or.records {
			return nil, fmt.Errorf("core: shard %d/%d: footer claims %d records, stream carried %d",
				or.header.Shard, or.header.Shards, foot.Records, or.records)
		}
		if foot.Digest != or.chain.hex() {
			return nil, fmt.Errorf("core: shard %d/%d: footer digest %s does not match the record chain %s",
				or.header.Shard, or.header.Shards, foot.Digest, or.chain.hex())
		}
		or.footer = &foot
		return nil, io.EOF
	}
	var rec OutcomeRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("core: shard %d/%d: decoding record %d: %w",
			or.header.Shard, or.header.Shards, or.records, err)
	}
	if want := oldComputeDigest(&rec); rec.Digest != want {
		return nil, fmt.Errorf("core: shard %d/%d: ordinal %d carries digest %s, content hashes to %s",
			or.header.Shard, or.header.Shards, rec.Ordinal, rec.Digest, want)
	}
	if rem := rec.Ordinal % int64(or.header.Shards); rem != int64(or.header.Shard) {
		return nil, fmt.Errorf("core: shard %d/%d: ordinal %d does not belong to this stripe",
			or.header.Shard, or.header.Shards, rec.Ordinal)
	}
	or.chain.add(rec.Digest)
	or.records++
	or.weighted += rec.EffectiveMult()
	return &rec, nil
}

func oldWriteOutcomeStream(w io.Writer, hdr ShardHeader, recs []OutcomeRecord) (*ShardSummary, error) {
	if hdr.Kind == "" {
		hdr.Kind = outcomeKind
	}
	if hdr.Version == 0 {
		hdr.Version = outcomeVersion
	}
	if hdr.Kind != outcomeKind || hdr.Version != outcomeVersion {
		return nil, fmt.Errorf("core: writing outcome stream of kind %q version %d; this writer speaks %q version %d",
			hdr.Kind, hdr.Version, outcomeKind, outcomeVersion)
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(hdr); err != nil {
		return nil, fmt.Errorf("core: writing header: %w", err)
	}
	var chain oldDigestChain
	for i := range recs {
		rec := recs[i]
		rec.Digest = oldComputeDigest(&rec)
		chain.add(rec.Digest)
		if err := enc.Encode(&rec); err != nil {
			return nil, fmt.Errorf("core: writing ordinal %d: %w", rec.Ordinal, err)
		}
	}
	foot := ShardFooter{Kind: footerKind, Records: int64(len(recs)), Digest: chain.hex()}
	if err := enc.Encode(foot); err != nil {
		return nil, fmt.Errorf("core: writing footer: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return nil, fmt.Errorf("core: flushing stream: %w", err)
	}
	return &ShardSummary{Header: hdr, Records: foot.Records, Digest: foot.Digest}, nil
}

// oldScenarioDigest is scenarioDigest as it was: every init rendered by
// fmt into the hash.
func oldScenarioDigest(text []byte, inits []model.Value) string {
	h := sha256.New()
	h.Write(text)
	h.Write([]byte{'|'})
	for _, v := range inits {
		fmt.Fprintf(h, "%d,", int(v))
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}
