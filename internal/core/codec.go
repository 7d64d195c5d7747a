// The outcome stream's one codec: the canonical line of every record and
// footer, the record digest, and the strict line parser, built on the
// primitives internal/wire shares with the other per-run formats.
// shard.go defines the format; everything that writes or reads a record
// goes through the functions here, so the stream's bytes have a single
// definition.

package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strconv"

	"repro/internal/wire"
)

// digestLen is the length of a record or chain digest: the first 16
// bytes of a SHA-256, in hex.
const digestLen = 32

// appendRecordLine appends r's canonical line, newline included, with
// pattern and digest standing for r's two strings: its own, or views of
// the line a reader is checking.
func appendRecordLine[S string | []byte](dst []byte, r *OutcomeRecord, pattern, digest S) []byte {
	dst = append(dst, `{"ord":`...)
	dst = strconv.AppendInt(dst, r.Ordinal, 10)
	dst = append(dst, `,"pattern":`...)
	dst = wire.AppendString(dst, pattern)
	dst = append(dst, `,"inits":`...)
	dst = wire.AppendInts(dst, r.Inits)
	dst = append(dst, `,"decisions":`...)
	dst = wire.AppendInts(dst, r.Decisions)
	dst = append(dst, `,"rounds":`...)
	dst = wire.AppendInts(dst, r.Rounds)
	dst = append(dst, `,"stats":{"sent":`...)
	dst = strconv.AppendInt(dst, int64(r.Stats.MessagesSent), 10)
	dst = append(dst, `,"delivered":`...)
	dst = strconv.AppendInt(dst, int64(r.Stats.MessagesDelivered), 10)
	dst = append(dst, `,"bitsSent":`...)
	dst = strconv.AppendInt(dst, r.Stats.BitsSent, 10)
	dst = append(dst, `,"bitsDelivered":`...)
	dst = strconv.AppendInt(dst, r.Stats.BitsDelivered, 10)
	dst = append(dst, '}')
	if r.Mult != 0 {
		dst = append(dst, `,"mult":`...)
		dst = strconv.AppendInt(dst, r.Mult, 10)
	}
	dst = append(dst, `,"digest":`...)
	dst = wire.AppendString(dst, digest)
	return append(dst, '}', '\n')
}

// appendFooterLine appends f's canonical line, newline included.
func appendFooterLine(dst []byte, f *ShardFooter) []byte {
	dst = append(dst, `{"kind":`...)
	dst = wire.AppendString(dst, f.Kind)
	dst = append(dst, `,"records":`...)
	dst = strconv.AppendInt(dst, f.Records, 10)
	dst = append(dst, `,"digest":`...)
	dst = wire.AppendString(dst, f.Digest)
	return append(dst, '}', '\n')
}

// appendDigestPreimage appends the bytes a record's digest hashes: every
// field but Digest, '|'-separated, slices in fmt's %v form, and the
// multiplicity only when it is above 1, with pattern standing for
// r.Pattern.
func appendDigestPreimage[S string | []byte](dst []byte, r *OutcomeRecord, pattern S) []byte {
	dst = strconv.AppendInt(dst, r.Ordinal, 10)
	dst = append(dst, '|')
	dst = append(dst, pattern...)
	for _, xs := range [...][]int{r.Inits, r.Decisions, r.Rounds} {
		dst = append(dst, '|', '[')
		for i, x := range xs {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = strconv.AppendInt(dst, int64(x), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(r.Stats.MessagesSent), 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(r.Stats.MessagesDelivered), 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, r.Stats.BitsSent, 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, r.Stats.BitsDelivered, 10)
	if r.Mult > 1 {
		dst = append(dst, '|', 'm')
		dst = strconv.AppendInt(dst, r.Mult, 10)
	}
	return dst
}

// appendDigest appends r's content digest in hex, with pattern standing
// for r.Pattern. scratch lends its capacity to the preimage and comes
// back for the next call.
func appendDigest[S string | []byte](dst []byte, r *OutcomeRecord, pattern S, scratch []byte) (digest, preimage []byte) {
	preimage = appendDigestPreimage(scratch[:0], r, pattern)
	sum := sha256.Sum256(preimage)
	return hex.AppendEncode(dst, sum[:digestLen/2]), preimage
}

// lineScratch is the storage one reader reuses from line to line: the
// re-encoded line, and the digest with its preimage.
type lineScratch struct {
	line, preimage, digest []byte
}

// A line is refused as malformed when it does not have a record's (or
// footer's) shape at all, and as not canonical when it parses but is not
// the encoder's own spelling of its content.
var (
	errMalformed    = errors.New("malformed line")
	errNotCanonical = errors.New("not the canonical encoding of its content")
)

// parseRecordLine decodes one record line (newline included) into r,
// reusing r's slices but leaving its Pattern and Digest alone: it returns
// those as views of the line (copies only when escaped), and accepts the
// line only if it is byte for byte what appendRecordLine writes for them.
// want is the digest the content hashes to, valid until the scratch is
// used again. Nothing is allocated for a canonical line.
func parseRecordLine(line []byte, r *OutcomeRecord, s *lineScratch) (pattern, digest, want []byte, err error) {
	p := wire.Parser{Rest: line}
	p.Lit(`{"ord":`)
	r.Ordinal = p.Int64()
	p.Lit(`,"pattern":`)
	pattern = p.Str()
	p.Lit(`,"inits":`)
	r.Inits = p.Ints(r.Inits)
	p.Lit(`,"decisions":`)
	r.Decisions = p.Ints(r.Decisions)
	p.Lit(`,"rounds":`)
	r.Rounds = p.Ints(r.Rounds)
	p.Lit(`,"stats":{"sent":`)
	r.Stats.MessagesSent = int(p.Int64())
	p.Lit(`,"delivered":`)
	r.Stats.MessagesDelivered = int(p.Int64())
	p.Lit(`,"bitsSent":`)
	r.Stats.BitsSent = p.Int64()
	p.Lit(`,"bitsDelivered":`)
	r.Stats.BitsDelivered = p.Int64()
	p.Lit(`}`)
	r.Mult = 0
	if p.Opt(`,"mult":`) {
		r.Mult = p.Int64()
	}
	p.Lit(`,"digest":`)
	digest = p.Str()
	p.Lit("}\n")
	if p.Bad || len(p.Rest) != 0 {
		return nil, nil, nil, errMalformed
	}
	s.line = appendRecordLine(s.line[:0], r, pattern, digest)
	if !bytes.Equal(s.line, line) {
		return nil, nil, nil, errNotCanonical
	}
	s.digest, s.preimage = appendDigest(s.digest[:0], r, pattern, s.preimage)
	return pattern, digest, s.digest, nil
}

// parseFooterLine is parseRecordLine's counterpart for the footer.
func parseFooterLine(line []byte, f *ShardFooter, s *lineScratch) error {
	p := wire.Parser{Rest: line}
	p.Lit(`{"kind":`)
	kind := p.Str()
	p.Lit(`,"records":`)
	f.Records = p.Int64()
	p.Lit(`,"digest":`)
	digest := p.Str()
	p.Lit("}\n")
	if p.Bad || len(p.Rest) != 0 {
		return errMalformed
	}
	f.Kind, f.Digest = string(kind), string(digest)
	s.line = appendFooterLine(s.line[:0], f)
	if !bytes.Equal(s.line, line) {
		return errNotCanonical
	}
	return nil
}
