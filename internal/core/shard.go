// Deterministic shard-and-merge: the multi-process face of the Runner.
//
// A sweep's Source enumerates scenarios in one canonical order; Stride
// splits that order into K modular stripes (stripe i holds the scenarios
// at global ordinals ≡ i mod K), so K independent processes can each pull
// their own stripe of the very same enumeration without coordinating.
// RunShard executes one stripe and emits a self-describing outcome stream
// — a JSONL header, one digested record per scenario carrying its global
// ordinal, and a footer sealing the stripe with a chained digest — to any
// io.Writer (a file, a pipe). MergeOutcomes fans K such streams back into
// the canonical order, verifying that the stripes partition the sweep
// exactly (no gaps, no overlaps, consistent headers, intact digests).
//
// The merged stream of K shards is byte-identical to the stream a single
// process writes with shardCount 1 — the invariant the CI
// shard-equivalence smoke pins with cmp(1) — so sharding is a pure
// throughput move: it can never change what a sweep observes.

package core

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	goruntime "runtime"
)

// Stride returns the shard's stripe of the source: the scenarios at
// global ordinals shardIndex, shardIndex+shardCount, shardIndex+2·shardCount,
// … in the source's own order. Striding is deterministic and modular, so
// the shardCount stripes partition the sweep exactly — no scenario is
// lost or duplicated — and any combinator stack (Limit, Filter,
// CrossInits) can sit on either side of it. shardCount 1 returns the
// source unchanged.
func Stride(src Source, shardIndex, shardCount int) (Source, error) {
	if shardCount < 1 {
		return nil, fmt.Errorf("core: shard count %d; need at least 1", shardCount)
	}
	if shardIndex < 0 || shardIndex >= shardCount {
		return nil, fmt.Errorf("core: shard index %d outside [0, %d)", shardIndex, shardCount)
	}
	if shardCount == 1 {
		return src, nil
	}
	return &strideSource{src: src, index: shardIndex, count: shardCount, skip: int64(shardIndex)}, nil
}

// SkipSource is a Source that can pass over scenarios without building
// them; Stride skips through one instead of pulling. Skip passes over the
// next k and returns how many, fewer than k only when the source ran out.
type SkipSource interface {
	Source
	Skip(k int64) int64
}

// strideSource discards the scenarios between the stripe's ordinals.
type strideSource struct {
	src   Source
	index int
	count int
	// skip is how many scenarios to discard before the next yield: index
	// before the first yield, count-1 between yields.
	skip int64
}

func (s *strideSource) Next() (Scenario, bool) {
	if sk, ok := s.src.(SkipSource); ok {
		s.skip -= sk.Skip(s.skip)
	}
	for s.skip > 0 {
		if _, ok := s.src.Next(); !ok {
			return Scenario{}, false
		}
		s.skip--
	}
	sc, ok := s.src.Next()
	if !ok {
		return Scenario{}, false
	}
	s.skip = int64(s.count - 1)
	return sc, true
}

func (s *strideSource) Count() (int64, bool) {
	c, ok := s.src.Count()
	if !ok {
		return 0, false
	}
	return StripeSize(c, s.index, s.count), true
}

// Err surfaces the inner source's mid-stream failure, if it reports one.
func (s *strideSource) Err() error {
	if es, ok := s.src.(ErrorSource); ok {
		return es.Err()
	}
	return nil
}

// StripeSize returns the number of ordinals in [0, total) congruent to
// shardIndex modulo shardCount — the length of that shard's stripe of a
// total-scenario sweep.
func StripeSize(total int64, shardIndex, shardCount int) int64 {
	if total <= int64(shardIndex) {
		return 0
	}
	return (total - int64(shardIndex) + int64(shardCount) - 1) / int64(shardCount)
}

// --- the outcome stream format -------------------------------------------

// Outcome streams are JSON lines: a ShardHeader, then one OutcomeRecord
// per scenario in stripe order, then a ShardFooter. Each value has one
// canonical line — its fields in declaration order under their JSON
// keys, no whitespace, integers in shortest decimal form, a nil slice as
// null, "mult" present exactly when non-zero, strings with printable
// ASCII standing for itself and only ", \, control characters, <, >, &,
// U+2028, U+2029 and invalid UTF-8 (as \ufffd) escaped, then one
// newline — which is also what encoding/json writes for the same
// structs. codec.go writes exactly that line and the reader accepts
// nothing else, so equal streams compare equal with cmp(1) and a stream
// that verifies is, byte for byte, the one its records re-encode to.
// A line is at most maxLineBytes long.
const (
	outcomeKind    = "eba-outcomes"
	footerKind     = "footer"
	outcomeVersion = 1
	// maxLineBytes bounds one stream line, so a reader never buffers more
	// than this on behalf of a hostile or corrupt stream. Real lines are
	// a few hundred bytes; a pattern losing every message at n=16, h=5
	// has a drop list of about 10 KiB.
	maxLineBytes = 1 << 20
)

// ShardHeader opens an outcome stream and makes it self-describing: which
// stripe of which sweep over which stack follows.
type ShardHeader struct {
	// Kind is "eba-outcomes"; Version the format version.
	Kind    string `json:"kind"`
	Version int    `json:"v"`
	// Shard and Shards identify the stripe: the records that follow carry
	// the global ordinals ≡ Shard mod Shards.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Stack names the protocol stack; N, T, and Horizon its configuration.
	Stack   string `json:"stack"`
	N       int    `json:"n"`
	T       int    `json:"t"`
	Horizon int    `json:"horizon"`
	// Count is the stripe's scenario count, or -1 when the source cannot
	// report one up front.
	Count int64 `json:"count"`
}

// OutcomeStats mirrors engine.Stats with stable JSON keys.
type OutcomeStats struct {
	MessagesSent      int   `json:"sent"`
	MessagesDelivered int   `json:"delivered"`
	BitsSent          int64 `json:"bitsSent"`
	BitsDelivered     int64 `json:"bitsDelivered"`
}

// OutcomeRecord is one completed scenario of a sharded sweep: the global
// ordinal locating it in the canonical enumeration, the scenario itself
// (pattern text + inits), the run's observable outcome, and a digest over
// all of it. Full traces stay in the process that ran them; the record
// carries what sweeps aggregate and specs judge.
type OutcomeRecord struct {
	// Ordinal is the scenario's position in the unsharded enumeration.
	Ordinal int64 `json:"ord"`
	// Pattern is the failure pattern in model.Pattern's text form.
	Pattern string `json:"pattern"`
	// Inits holds the initial preferences as 0/1.
	Inits []int `json:"inits"`
	// Decisions[i] is the value agent i decided (-1 for none);
	// Rounds[i] the round it first decided in (0 for never).
	Decisions []int `json:"decisions"`
	Rounds    []int `json:"rounds"`
	// Stats aggregates the run's message traffic.
	Stats OutcomeStats `json:"stats"`
	// Mult is the number of sweep scenarios this record stands for: the
	// orbit size when the sweep was symmetry-quotiented
	// (source.Quotient), omitted (meaning 1) otherwise. Aggregators
	// weight decision tallies and totals by it so quotiented sweeps
	// report full-sweep counts.
	Mult int64 `json:"mult,omitempty"`
	// Digest fingerprints every field above.
	Digest string `json:"digest"`
}

// EffectiveMult is Mult with the zero-means-one default applied.
func (r *OutcomeRecord) EffectiveMult() int64 {
	if r.Mult <= 0 {
		return 1
	}
	return r.Mult
}

// ShardFooter seals a stream: how many records it carries and the chained
// digest over them in stream order.
type ShardFooter struct {
	Kind    string `json:"kind"`
	Records int64  `json:"records"`
	Digest  string `json:"digest"`
}

// ComputeDigest fingerprints the record's content (everything but the
// Digest field itself). It is the stripe-level integrity primitive the
// cross-machine fabric verifies uploads with: a record is intact exactly
// when its Digest field equals its ComputeDigest. A multiplicity is
// hashed only when present (> 1), so records of unquotiented sweeps hash
// exactly as they did before multiplicities existed.
func (r *OutcomeRecord) ComputeDigest() string {
	digest, _ := appendDigest(nil, r, r.Pattern, nil)
	return string(digest)
}

// digestChain folds record digests in stream order; two streams carrying
// the same records in the same order chain to the same value.
type digestChain struct{ h [sha256.Size]byte }

// tally folds a stream's records: digest chain, count, multiplicities.
type tally struct {
	chain             digestChain
	records, weighted int64
}

func (t *tally) add(ref *lineRef) {
	t.chain.add(ref.digest[:])
	t.records++
	t.weighted += ref.mult
}

func (c *digestChain) add(recordDigest []byte) {
	var buf [sha256.Size + digestLen]byte
	c.h = sha256.Sum256(append(append(buf[:0], c.h[:]...), recordDigest...))
}

func (c *digestChain) hex() string { return hex.EncodeToString(c.h[:digestLen/2]) }

// --- writing: RunShard ---------------------------------------------------

// ShardSummary reports a completed RunShard.
type ShardSummary struct {
	// Header is the stream's header as written.
	Header ShardHeader
	// Records is the number of scenarios the stripe ran.
	Records int64
	// Weighted is the number of sweep scenarios the stripe stands for:
	// the sum of record multiplicities. Equal to Records unless the
	// sweep was symmetry-quotiented.
	Weighted int64
	// Digest is the chained digest over the stripe's records.
	Digest string
	// Executed counts the records the result cache (WithResultCache) did
	// not serve, CacheHits those it did, and Relabeled the Executed ones
	// relabeled from an orbit member's run (orbit.go). VerifyOutcomeStream
	// leaves all three zero: the stream cannot tell them from executions.
	Executed, CacheHits, Relabeled int64
}

// RunShard executes stripe shardIndex of shardCount of the source's sweep
// and writes the self-describing outcome stream — header, one digested
// record per scenario in stripe order, footer — to w. The source is the
// FULL sweep; RunShard strides it, so K processes handed the same source
// constructor and distinct indexes partition the sweep exactly. Runs fan
// out over the runner's worker pool (WithParallelism); the stream is
// emitted in stripe order regardless. Over a model.KeyPermuter exchange it
// runs one member per agent-permutation orbit and relabels the others'
// runs, trusting the whole stack to be equivariant (orbit.go). Its memo is
// WithOrbitMemo's, or a fresh one when that is unset or full; one made for
// another stack identity (exchange, action, n, t, horizon) is refused.
// The first execution error, specification violation, or cancellation
// aborts the shard with that error as the context cause — a partial
// stream carries no footer, so MergeOutcomes rejects it.
// Each record is filled, digested and encoded on the calling goroutine,
// in stripe order, straight into the stream writer's buffer.
func (r *Runner) RunShard(ctx context.Context, src Source, shardIndex, shardCount int, w io.Writer) (*ShardSummary, error) {
	stripe, err := Stride(src, shardIndex, shardCount)
	if err != nil {
		return nil, err
	}
	memo := r.shared
	if memo != nil && memo.stack != orbitIdentity(r.stack) {
		return nil, fmt.Errorf("core: shard %d/%d: an orbit memo made for %s cannot serve %s", shardIndex, shardCount, memo.stack, orbitIdentity(r.stack))
	}
	if memo == nil || memo.full.Load() { // a memo that filled serves no later call
		memo = NewOrbitMemo(r.stack)
	}
	hdr := ShardHeader{
		Kind:    outcomeKind,
		Version: outcomeVersion,
		Shard:   shardIndex,
		Shards:  shardCount,
		Stack:   r.stack.Name,
		N:       r.stack.N,
		T:       r.stack.T,
		Horizon: r.stack.Horizon(),
		Count:   -1,
	}
	if c, ok := stripe.Count(); ok {
		hdr.Count = c
	}
	sw, err := newStreamWriter(w, hdr)
	if err != nil {
		return nil, fmt.Errorf("core: shard %d/%d: writing header: %w", shardIndex, shardCount, err)
	}

	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	cachingExec, _ := r.exec.(*CachingExecutor)
	var countersBefore CacheCounters
	if cachingExec != nil {
		countersBefore = cachingExec.Counters()
	}
	run := *r
	if memo != nil {
		run.memo = &orbitCall{OrbitMemo: memo}
	}
	run.pool(ctx, stripe, func(err error) {
		cancel(fmt.Errorf("core: shard %d/%d: %w", shardIndex, shardCount, err))
	}, func(outs []RunOutcome) bool {
		for i := range outs {
			if err := sw.outcome(&outs[i], int64(shardIndex)+int64(outs[i].Index)*int64(shardCount)); err != nil {
				cancel(fmt.Errorf("core: shard %d/%d: %w", shardIndex, shardCount, err))
				return false
			}
		}
		return true
	})
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	if hdr.Count >= 0 && sw.records != hdr.Count {
		return nil, fmt.Errorf("core: shard %d/%d ran %d of %d scenarios", shardIndex, shardCount, sw.records, hdr.Count)
	}
	foot, err := sw.finish()
	if err != nil {
		return nil, fmt.Errorf("core: shard %d/%d: writing footer: %w", shardIndex, shardCount, err)
	}
	sum := &ShardSummary{Header: hdr, Records: foot.Records, Weighted: sw.weighted, Digest: foot.Digest, Executed: foot.Records}
	if cachingExec != nil {
		delta := cachingExec.Counters()
		sum.CacheHits = delta.Hits - countersBefore.Hits
		sum.Executed = delta.Misses - countersBefore.Misses
	}
	if run.memo != nil {
		sum.Relabeled = run.memo.relabeled.Load()
	}
	return sum, nil
}

// serialBelow is the header record count (-1 is unknown, not below)
// under which VerifyOutcomeStream and MergeOutcomes read on one goroutine.
// It is the smallest size measured at which both chunked paths beat the
// serial ones: below it they are slower or within noise and allocate two
// to five times the bytes (docs/architecture.md, "Every core on the
// stream", has the table). linesPerChunk is how many lines readChunks
// hands on at a time, fewer once a chunk would pass its byte budget.
const serialBelow, linesPerChunk = 512, 32

// sealed is a chunk of canonical record lines, back to back in buf, as
// readChunks reads them. err is what ended it early, after recs.
type sealed struct {
	buf   []byte
	recs  []lineRef
	first int64 // the stream position of recs[0]
	err   error
}

// lineRef is buf[start:end] and what a tally folds of it.
type lineRef struct {
	start, end    int
	ordinal, mult int64
	digest        [digestLen]byte
}

func (c *sealed) line(i int) []byte { return c.buf[c.recs[i].start:c.recs[i].end] }

// streamWriter writes one outcome stream: the header on construction,
// then records — chaining their digests and counting them — then the
// footer. RunShard, WriteOutcomeStream and MergeOutcomes all write
// through it, and record is the one place a record is sealed.
type streamWriter struct {
	bw *bufio.Writer
	tally
	// The sealing scratch: outcome's record and pattern text, record's preimage.
	rec            OutcomeRecord
	text, preimage []byte
}

// newStreamWriter starts a stream on w with the header's line.
func newStreamWriter(w io.Writer, hdr ShardHeader) (*streamWriter, error) {
	line, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	// Lines are a few hundred bytes; 64 KiB keeps a stripe written to a
	// file or a socket to a few hundred writes.
	sw := &streamWriter{bw: bufio.NewWriterSize(w, 64<<10)}
	_, err = sw.bw.Write(append(line, '\n'))
	return sw, err
}

// record seals rec, pattern standing for rec.Pattern: it digests the
// record and encodes its line straight into the writer's buffer.
func (sw *streamWriter) record(rec *OutcomeRecord, pattern []byte) error {
	ref := lineRef{ordinal: rec.Ordinal, mult: rec.EffectiveMult()}
	_, sw.preimage = appendDigest(ref.digest[:0], rec, pattern, sw.preimage)
	return sw.verbatim(appendRecordLine(sw.bw.AvailableBuffer(), rec, pattern, ref.digest[:]), &ref)
}

// outcome writes the record of a run at ordinal, or returns its error.
func (sw *streamWriter) outcome(oc *RunOutcome, ordinal int64) error {
	if oc.Err != nil {
		return oc.Err
	}
	res, r := oc.Result, &sw.rec
	var err error
	if sw.text, err = res.Pattern.AppendText(sw.text[:0]); err != nil {
		return fmt.Errorf("encoding pattern of ordinal %d: %w", ordinal, err)
	}
	r.Ordinal = ordinal
	r.Inits, r.Decisions, r.Rounds = r.Inits[:0], r.Decisions[:0], r.Rounds[:0]
	for i := 0; i < res.N; i++ {
		r.Inits = append(r.Inits, int(res.Inits[i]))
		r.Decisions = append(r.Decisions, int(res.Decision[i]))
		r.Rounds = append(r.Rounds, res.DecisionRound[i])
	}
	r.Stats = OutcomeStats(res.Stats)
	r.Mult = 0
	if w := oc.Scenario.EffectiveWeight(); w > 1 {
		r.Mult = w
	}
	if err := sw.record(r, sw.text); err != nil {
		return fmt.Errorf("writing ordinal %d: %w", ordinal, err)
	}
	return nil
}

// verbatim writes a line already known to be canonical.
func (sw *streamWriter) verbatim(line []byte, ref *lineRef) error {
	sw.add(ref)
	_, err := sw.bw.Write(line)
	return err
}

// finish writes the footer and flushes the stream.
func (sw *streamWriter) finish() (ShardFooter, error) {
	foot := ShardFooter{Kind: footerKind, Records: sw.records, Digest: sw.chain.hex()}
	if _, err := sw.bw.Write(appendFooterLine(nil, &foot)); err != nil {
		return foot, err
	}
	return foot, sw.bw.Flush()
}

// --- reading: OutcomeReader ----------------------------------------------

// OutcomeReader decodes one shard's outcome stream, verifying record
// digests and the footer's count and chained digest as it goes, and
// refusing any line that is not the canonical one for its content. Next
// returns io.EOF after the footer; a stream that ends without one is
// reported as truncated (the mark RunShard leaves when it aborts).
type OutcomeReader struct {
	br     *bufio.Reader
	header ShardHeader
	tally
	footer *ShardFooter
	long   []byte // a line that outgrew br's buffer
	// A line and its error read but left for the next read.
	unread    []byte
	unreadErr error
	// What next reads into for the readers that keep no record.
	scratch lineScratch
	rec     OutcomeRecord
}

// errLineTooLong is what readLine refuses an over-long line with.
var errLineTooLong = fmt.Errorf("line exceeds %d bytes", maxLineBytes)

// readLine returns the stream's next line, newline included, valid until
// the next call. A final line without a newline comes back with
// io.ErrUnexpectedEOF; a stream with nothing left returns io.EOF.
func (or *OutcomeReader) readLine() ([]byte, error) {
	if line, err := or.unread, or.unreadErr; line != nil || err != nil {
		or.unread, or.unreadErr = nil, nil
		return line, err
	}
	line, err := or.br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		if or.long == nil {
			// All a line may ever need, once, instead of regrowing under a
			// hostile stream.
			or.long = make([]byte, 0, maxLineBytes+or.br.Size())
		}
		or.long = append(or.long[:0], line...)
		for errors.Is(err, bufio.ErrBufferFull) {
			if len(or.long) > maxLineBytes {
				return nil, errLineTooLong
			}
			line, err = or.br.ReadSlice('\n')
			or.long = append(or.long, line...)
		}
		line = or.long
	}
	if len(line) > maxLineBytes {
		return nil, errLineTooLong
	}
	if errors.Is(err, io.EOF) && len(line) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return line, err
}

// isFooter reports whether a line is not a record's.
func isFooter(line []byte) bool { return bytes.HasPrefix(line, []byte(`{"kind":`)) }

// NewOutcomeReader reads and validates the stream's header.
func NewOutcomeReader(r io.Reader) (*OutcomeReader, error) {
	// Lines are a few hundred bytes; longer ones spill into or.long.
	or := &OutcomeReader{br: bufio.NewReaderSize(r, 64<<10)}
	line, err := or.readLine()
	if err != nil {
		return nil, fmt.Errorf("core: reading outcome-stream header: %w", err)
	}
	hdr := &or.header
	if err := json.Unmarshal(line, hdr); err != nil {
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
	if canon, err := json.Marshal(hdr); err != nil || !bytes.Equal(append(canon, '\n'), line) {
		return nil, fmt.Errorf("core: reading outcome-stream header: %w", errNotCanonical)
	}
	return or, nil
}

// Header returns the stream's header.
func (or *OutcomeReader) Header() ShardHeader { return or.header }

// Footer returns the stream's footer once Next has returned io.EOF, and
// nil before that.
func (or *OutcomeReader) Footer() *ShardFooter { return or.footer }

// Next returns the stream's next record. It verifies the record's digest
// against its content and its place in the stripe and, at the footer, the
// stream's record count, against the header's when it declares one, and
// chained digest; io.EOF reports a cleanly sealed stream.
func (or *OutcomeReader) Next() (*OutcomeRecord, error) {
	rec := new(OutcomeRecord)
	var ref lineRef
	_, pattern, err := or.next(rec, &ref)
	if err != nil {
		return nil, err
	}
	rec.Pattern, rec.Digest = string(pattern), string(ref.digest[:])
	return rec, nil
}

// next reads the next record into rec but for Pattern and Digest, and
// into ref; its line and Pattern come back as views valid until the next
// read. io.EOF follows a sealed footer.
func (or *OutcomeReader) next(rec *OutcomeRecord, ref *lineRef) (line, pattern []byte, err error) {
	if or.footer != nil {
		return nil, nil, io.EOF
	}
	line, err = or.readLine()
	if errors.Is(err, io.EOF) {
		return nil, nil, fmt.Errorf("core: shard %d/%d: stream truncated after %d records (no footer)",
			or.header.Shard, or.header.Shards, or.records)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: shard %d/%d: decoding record %d: %w",
			or.header.Shard, or.header.Shards, or.records, err)
	}
	if isFooter(line) {
		var foot ShardFooter
		if err := parseFooterLine(line, &foot, &or.scratch); err != nil {
			return nil, nil, fmt.Errorf("core: shard %d/%d: decoding footer: %w", or.header.Shard, or.header.Shards, err)
		}
		if foot.Kind != footerKind {
			return nil, nil, fmt.Errorf("core: shard %d/%d: decoding record %d: line of kind %q",
				or.header.Shard, or.header.Shards, or.records, foot.Kind)
		}
		if foot.Records != or.records {
			return nil, nil, fmt.Errorf("core: shard %d/%d: footer claims %d records, stream carried %d",
				or.header.Shard, or.header.Shards, foot.Records, or.records)
		}
		if foot.Digest != or.chain.hex() {
			return nil, nil, fmt.Errorf("core: shard %d/%d: footer digest %s does not match the record chain %s",
				or.header.Shard, or.header.Shards, foot.Digest, or.chain.hex())
		}
		if _, err := or.readLine(); err == nil {
			return nil, nil, fmt.Errorf("core: shard %d/%d: data after the footer", or.header.Shard, or.header.Shards)
		} else if !errors.Is(err, io.EOF) {
			return nil, nil, fmt.Errorf("core: shard %d/%d: reading past the footer: %w", or.header.Shard, or.header.Shards, err)
		}
		if c := or.header.Count; c >= 0 && foot.Records != c {
			return nil, nil, fmt.Errorf("core: shard %d/%d: footer seals %d records, header declares %d",
				or.header.Shard, or.header.Shards, foot.Records, c)
		}
		or.footer = &foot
		return nil, nil, io.EOF
	}
	if pattern, err = verifyRecord(line, &or.header, or.records, rec, &or.scratch, ref); err != nil {
		return nil, nil, err
	}
	or.add(ref)
	return line, pattern, nil
}

// verifyRecord checks the index-th record line of stripe hdr: canonical
// form, digest, and its place, ordinal Shard + index·Shards. It decodes
// the line as next does and fills ref; a canonical line costs no
// allocation. Every reader checks records through it.
func verifyRecord(line []byte, hdr *ShardHeader, index int64, rec *OutcomeRecord, s *lineScratch, ref *lineRef) (pattern []byte, err error) {
	pattern, digest, want, err := parseRecordLine(line, rec, s)
	if err != nil {
		return nil, fmt.Errorf("core: shard %d/%d: decoding record %d: %w", hdr.Shard, hdr.Shards, index, err)
	}
	if !bytes.Equal(digest, want) {
		return nil, fmt.Errorf("core: shard %d/%d: ordinal %d carries digest %s, content hashes to %s",
			hdr.Shard, hdr.Shards, rec.Ordinal, digest, want)
	}
	if want := int64(hdr.Shard) + index*int64(hdr.Shards); rec.Ordinal != want {
		return nil, fmt.Errorf("core: shard %d/%d: record %d carries ordinal %d where the stripe needs %d",
			hdr.Shard, hdr.Shards, index, rec.Ordinal, want)
	}
	ref.ordinal, ref.mult = rec.Ordinal, rec.EffectiveMult()
	copy(ref.digest[:], want)
	return pattern, nil
}

// VerifyOutcomeStream drains one shard's outcome stream, verifying every
// record digest, that the record at stripe position i carries ordinal
// Shard + i·Shards, and the sealing footer, whose count must be a
// declared header count; it returns the stream's summary (header, record
// count, chained digest). It is the acceptance check a fan-in process —
// cmd/ebashard's -merge, the fabric coordinator's upload check — runs
// before trusting a stripe: a torn, truncated, reordered or tampered
// stream is reported as an error, never as a summary.
//
// A stream of fewer than serialBelow records is checked on the calling
// goroutine. A longer one goes through readChunks first: GOMAXPROCS
// workers check its records, places included, and the chain folds on the
// calling goroutine in stream order, which checks the footer. Either way
// the first error in the stream is reported, in the same words. An error
// is returned once the Read in progress on r, if any, has returned.
func VerifyOutcomeStream(r io.Reader) (*ShardSummary, error) {
	or, err := NewOutcomeReader(r)
	if err != nil {
		return nil, err
	}
	hdr := or.Header()
	if c := hdr.Count; c < 0 || c >= serialBelow {
		err = readChunks([]*OutcomeReader{or}, func([]byte, *lineRef) error { return nil })
	}
	var ref lineRef
	for err == nil {
		_, _, err = or.next(&or.rec, &ref)
	}
	if !errors.Is(err, io.EOF) {
		return nil, err
	}
	foot := or.Footer()
	return &ShardSummary{Header: hdr, Records: foot.Records, Weighted: or.weighted, Digest: foot.Digest}, nil
}

// WriteOutcomeStream re-seals records into a valid outcome stream:
// header, the records in the given order with their digests recomputed
// from content, and a footer chaining them. It is the re-spooling face of
// the format — what RunShard produces by executing, WriteOutcomeStream
// produces from records already in hand — and the byte encoding is
// identical, so a re-spooled stripe still compares with cmp(1).
func WriteOutcomeStream(w io.Writer, hdr ShardHeader, recs []OutcomeRecord) (*ShardSummary, error) {
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
	sw, err := newStreamWriter(w, hdr)
	if err != nil {
		return nil, fmt.Errorf("core: writing header: %w", err)
	}
	for i := range recs {
		if err := sw.record(&recs[i], []byte(recs[i].Pattern)); err != nil {
			return nil, fmt.Errorf("core: writing ordinal %d: %w", recs[i].Ordinal, err)
		}
	}
	foot, err := sw.finish()
	if err != nil {
		return nil, fmt.Errorf("core: writing footer: %w", err)
	}
	return &ShardSummary{Header: hdr, Records: foot.Records, Digest: foot.Digest}, nil
}

// --- merging: MergeOutcomes ----------------------------------------------

// MergeSummary reports a completed MergeOutcomes.
type MergeSummary struct {
	// Shards is the number of merged stripes.
	Shards int
	// Total is the merged scenario count.
	Total int64
	// Weighted is the number of sweep scenarios the merge stands for:
	// the sum of record multiplicities across all stripes. Equal to
	// Total unless the sweep was symmetry-quotiented.
	Weighted int64
	// Digest is the chained digest over the merged records in canonical
	// order — equal to the Digest a single-process (shardCount 1) RunShard
	// of the same sweep reports.
	Digest string
	// Headers holds the shard headers in shard order.
	Headers []ShardHeader
}

// MergeOutcomes fans K shard streams back into the canonical enumeration
// order, verifying that the stripes partition the sweep exactly: headers
// must agree on the stack and declare K distinct stripes of a K-way
// split; every record's digest must match its content; ordinals must
// cover 0..total-1 with no gap and no overlap; and each stream's footer
// must seal its stripe. Streams may be passed in any order.
//
// When w is non-nil the merged stream is written to it in the same
// format, as the single stripe of a 1-way split — byte-identical to what
// one process running the whole sweep writes, so sharded and unsharded
// runs can be compared with cmp(1).
//
// A merge of fewer than serialBelow records reads its stripes on the
// calling goroutine. A longer one goes through readChunks first:
// GOMAXPROCS workers check each record against its stripe's header, its
// place included, which rules out a gap or an overlap inside a stripe, and
// the merging goroutine folds the stripes' chains, chains the output,
// copies each line and checks the footers. Either way the first error met
// is the one a serial merge would report. An error is returned once the Read in progress on each stream,
// if any, has returned.
func MergeOutcomes(w io.Writer, streams ...io.Reader) (*MergeSummary, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("core: merge of zero outcome streams")
	}
	byShard := make([]*OutcomeReader, len(streams))
	for _, s := range streams {
		or, err := NewOutcomeReader(s)
		if err != nil {
			return nil, err
		}
		h := or.Header()
		if h.Shards != len(streams) {
			return nil, fmt.Errorf("core: merging %d streams but shard %d declares a %d-way split",
				len(streams), h.Shard, h.Shards)
		}
		if byShard[h.Shard] != nil {
			return nil, fmt.Errorf("core: two streams both claim shard %d/%d (overlap)", h.Shard, h.Shards)
		}
		byShard[h.Shard] = or
	}
	ref := byShard[0].Header()
	total := int64(0)
	for i, or := range byShard {
		h := or.Header()
		if h.Stack != ref.Stack || h.N != ref.N || h.T != ref.T || h.Horizon != ref.Horizon {
			return nil, fmt.Errorf("core: shard %d ran %s(n=%d,t=%d,h=%d), shard 0 ran %s(n=%d,t=%d,h=%d)",
				i, h.Stack, h.N, h.T, h.Horizon, ref.Stack, ref.N, ref.T, ref.Horizon)
		}
		if total >= 0 && h.Count >= 0 {
			total += h.Count
		} else {
			total = -1
		}
	}

	// A nil w merges into the void: the checks and the summary are the
	// same, the bytes go nowhere.
	if w == nil {
		w = io.Discard
	}
	mh := ref
	mh.Shard, mh.Shards, mh.Count = 0, 1, total
	sw, err := newStreamWriter(w, mh)
	if err != nil {
		return nil, fmt.Errorf("core: writing merged header: %w", err)
	}

	k := len(byShard)
	var ord int64
	put := func(line []byte, rec *lineRef) error {
		// The stripe's reader accepted line as canonical, at ordinal ord:
		// the ord/k-th record of stripe ord mod k.
		if err := sw.verbatim(line, rec); err != nil {
			return fmt.Errorf("core: writing merged ordinal %d: %w", ord, err)
		}
		ord++
		return nil
	}
	if total < 0 || total >= serialBelow {
		if err := readChunks(byShard, put); err != nil {
			return nil, err
		}
	}
	var rec lineRef
	for {
		j := int(ord % int64(k))
		line, _, err := byShard[j].next(&byShard[j].rec, &rec)
		if errors.Is(err, io.EOF) {
			// This stripe is exhausted at ordinal ord, fixing the sweep's
			// total; every other stripe must be exhausted too, or it holds
			// a record the canonical order has no slot for.
			for i, or := range byShard {
				if i == j {
					continue
				}
				if _, _, ferr := or.next(&or.rec, &rec); !errors.Is(ferr, io.EOF) {
					if ferr != nil {
						return nil, ferr
					}
					return nil, fmt.Errorf("core: shard %d carries ordinal %d beyond the sweep's end at %d (gap or overlap)",
						i, rec.ordinal, ord)
				}
			}
			break
		}
		if err == nil {
			err = put(line, &rec)
		}
		if err != nil {
			return nil, err
		}
	}
	foot, err := sw.finish()
	if err != nil {
		return nil, fmt.Errorf("core: writing merged footer: %w", err)
	}

	sum := &MergeSummary{Shards: k, Total: ord, Weighted: sw.weighted, Digest: foot.Digest, Headers: make([]ShardHeader, k)}
	for i, or := range byShard {
		sum.Headers[i] = or.Header()
	}
	return sum, nil
}

// readChunks reads the record lines of ors in merge order, the line at
// position p from stream p mod len(ors), a chunk at a time on a goroutine
// of its own. GOMAXPROCS workers check the records (verifyRecord), and
// emit has them on the calling goroutine in order, each folded into its
// stream's tally. readChunks stops at the first error in a record. It
// also stops, with nil, before a footer, a read error or a line too long
// for any chunk, which it leaves to the serial reader. The chunks in
// flight hold at most maxLineBytes together. It returns once the Read in
// progress, if any, has returned.
func readChunks(ors []*OutcomeReader, emit func(line []byte, ref *lineRef) error) (err error) {
	k, pos := int64(len(ors)), int64(0)
	workers := goruntime.GOMAXPROCS(0)
	window := chunksPerWorker * workers
	budget := maxLineBytes / window
	produced := inOrder(nil, workers, window, func(c *sealed, _ int) bool {
		c.buf, c.recs, c.err = c.buf[:0], c.recs[:0], nil
		for c.first = pos; len(c.recs) < linesPerChunk; pos++ {
			or := ors[pos%k]
			line, err := or.readLine()
			if err != nil || isFooter(line) || len(c.buf)+len(line) > budget {
				// The line starts the next chunk, or it is the serial
				// reader's, with its error.
				or.unread, or.unreadErr = line, err
				return err == nil && !isFooter(line) && len(line) <= budget
			}
			c.recs = append(c.recs, lineRef{start: len(c.buf), end: len(c.buf) + len(line)})
			c.buf = append(c.buf, line...)
		}
		return true
	}, func() func(*sealed) {
		var rec OutcomeRecord
		var s lineScratch
		return func(c *sealed) {
			for i := range c.recs {
				p := c.first + int64(i)
				if _, err := verifyRecord(c.line(i), &ors[p%k].header, p/k, &rec, &s, &c.recs[i]); err != nil {
					c.recs, c.err = c.recs[:i], err
					return
				}
			}
		}
	}, func(c *sealed) bool {
		for i := range c.recs {
			ors[(c.first+int64(i))%k].add(&c.recs[i])
			if err = emit(c.line(i), &c.recs[i]); err != nil {
				return false
			}
		}
		err = c.err
		return err == nil
	})
	<-produced
	return err
}
