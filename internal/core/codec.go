// The outcome stream's one codec: the canonical line of every record and
// footer, the record digest, and the strict line parser. shard.go defines
// the format; everything that writes or reads a record goes through the
// functions here, so the stream's bytes have a single definition.

package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// digestLen is the length of a record or chain digest: the first 16
// bytes of a SHA-256, in hex.
const digestLen = 32

// appendRecordLine appends r's canonical line, newline included.
func appendRecordLine(dst []byte, r *OutcomeRecord) []byte {
	dst = append(dst, `{"ord":`...)
	dst = strconv.AppendInt(dst, r.Ordinal, 10)
	dst = append(dst, `,"pattern":`...)
	dst = appendJSONString(dst, r.Pattern)
	dst = append(dst, `,"inits":`...)
	dst = appendJSONInts(dst, r.Inits)
	dst = append(dst, `,"decisions":`...)
	dst = appendJSONInts(dst, r.Decisions)
	dst = append(dst, `,"rounds":`...)
	dst = appendJSONInts(dst, r.Rounds)
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
	dst = appendJSONString(dst, r.Digest)
	return append(dst, '}', '\n')
}

// appendFooterLine appends f's canonical line, newline included.
func appendFooterLine(dst []byte, f *ShardFooter) []byte {
	dst = append(dst, `{"kind":`...)
	dst = appendJSONString(dst, f.Kind)
	dst = append(dst, `,"records":`...)
	dst = strconv.AppendInt(dst, f.Records, 10)
	dst = append(dst, `,"digest":`...)
	dst = appendJSONString(dst, f.Digest)
	return append(dst, '}', '\n')
}

// appendJSONInts appends xs as a JSON array, or null for a nil slice.
func appendJSONInts(dst []byte, xs []int) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// plainASCII reports whether b stands for itself inside a canonical JSON
// string: printable ASCII other than the quote, the backslash and the
// three bytes the canonical form escapes for HTML safety.
func plainASCII(b byte) bool {
	return b >= 0x20 && b < utf8.RuneSelf && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// appendJSONString appends s as a canonical JSON string. Plain ASCII —
// every pattern text and digest the pipeline itself produces — is copied
// through; anything else is escaped the way encoding/json escapes it.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if plainASCII(b) {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendDigestPreimage appends the bytes a record's digest hashes: every
// field but Digest, '|'-separated, slices in fmt's %v form, and the
// multiplicity only when it is above 1.
func appendDigestPreimage(dst []byte, r *OutcomeRecord) []byte {
	dst = strconv.AppendInt(dst, r.Ordinal, 10)
	dst = append(dst, '|')
	dst = append(dst, r.Pattern...)
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

// appendDigest appends r's content digest in hex. scratch lends its
// capacity to the preimage and comes back for the next call.
func appendDigest(dst []byte, r *OutcomeRecord, scratch []byte) (digest, preimage []byte) {
	preimage = appendDigestPreimage(scratch[:0], r)
	sum := sha256.Sum256(preimage)
	return hex.AppendEncode(dst, sum[:digestLen/2]), preimage
}

// lineParser walks one canonical line left to right. Its methods accept
// a superset of the canonical form — any decimal spelling of an integer,
// any JSON escape — and parseRecordLine and parseFooterLine then demand
// that re-encoding what was read reproduces the line byte for byte, so
// the canonical form is what the encoder writes and nothing else.
type lineParser struct {
	rest []byte
	bad  bool
}

// opt consumes s if the line continues with it.
func (p *lineParser) opt(s string) bool {
	if len(p.rest) < len(s) || string(p.rest[:len(s)]) != s {
		return false
	}
	p.rest = p.rest[len(s):]
	return true
}

// lit consumes the literal s, which must come next.
func (p *lineParser) lit(s string) {
	if !p.opt(s) {
		p.bad = true
	}
}

// int64 consumes an optionally signed run of digits. Overflow wraps:
// the wrapped value re-encodes to different digits, so the line is
// refused all the same.
func (p *lineParser) int64() int64 {
	i, neg := 0, false
	if len(p.rest) > 0 && p.rest[0] == '-' {
		neg = true
		i = 1
	}
	first := i
	var v uint64
	for i < len(p.rest) && p.rest[i]-'0' <= 9 {
		v = v*10 + uint64(p.rest[i]-'0')
		i++
	}
	if i == first {
		p.bad = true
		return 0
	}
	p.rest = p.rest[i:]
	if neg {
		return -int64(v)
	}
	return int64(v)
}

// ints consumes null or an array of integers into dst's storage.
func (p *lineParser) ints(dst []int) []int {
	if p.opt("null") {
		return nil
	}
	p.lit("[")
	dst = dst[:0]
	if dst == nil {
		dst = []int{}
	}
	if p.opt("]") {
		return dst
	}
	for !p.bad {
		dst = append(dst, int(p.int64()))
		if p.opt("]") {
			break
		}
		p.lit(",")
	}
	return dst
}

// str consumes a JSON string and returns its content: a view of the
// line when it carries no escapes — every string the pipeline writes —
// and an unescaped copy when it does.
func (p *lineParser) str() []byte {
	p.lit(`"`)
	if p.bad {
		return nil
	}
	end := bytes.IndexByte(p.rest, '"')
	if end < 0 {
		p.bad = true
		return nil
	}
	if bytes.IndexByte(p.rest[:end], '\\') < 0 {
		s := p.rest[:end]
		p.rest = p.rest[end+1:]
		return s
	}
	var buf []byte
	for i := 0; i < len(p.rest); i++ {
		switch b := p.rest[i]; b {
		case '"':
			p.rest = p.rest[i+1:]
			return buf
		case '\\':
			i++
			if i == len(p.rest) {
				p.bad = true
				return nil
			}
			switch e := p.rest[i]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				if i+4 >= len(p.rest) {
					p.bad = true
					return nil
				}
				c, err := strconv.ParseUint(string(p.rest[i+1:i+5]), 16, 16)
				if err != nil {
					p.bad = true
					return nil
				}
				// The encoder never writes a surrogate escape, so one
				// becomes U+FFFD here and fails the re-encoding check.
				buf = utf8.AppendRune(buf, rune(c))
				i += 4
			default:
				p.bad = true
				return nil
			}
		default:
			buf = append(buf, b)
		}
	}
	p.bad = true
	return nil
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
// reusing r's slices, and accepts it only if it is byte for byte what
// appendRecordLine writes for r. It returns the digest the content
// hashes to, valid until the scratch is used again.
func parseRecordLine(line []byte, r *OutcomeRecord, s *lineScratch) (want []byte, err error) {
	p := lineParser{rest: line}
	p.lit(`{"ord":`)
	r.Ordinal = p.int64()
	p.lit(`,"pattern":`)
	pattern := p.str()
	p.lit(`,"inits":`)
	r.Inits = p.ints(r.Inits)
	p.lit(`,"decisions":`)
	r.Decisions = p.ints(r.Decisions)
	p.lit(`,"rounds":`)
	r.Rounds = p.ints(r.Rounds)
	p.lit(`,"stats":{"sent":`)
	r.Stats.MessagesSent = int(p.int64())
	p.lit(`,"delivered":`)
	r.Stats.MessagesDelivered = int(p.int64())
	p.lit(`,"bitsSent":`)
	r.Stats.BitsSent = p.int64()
	p.lit(`,"bitsDelivered":`)
	r.Stats.BitsDelivered = p.int64()
	p.lit(`}`)
	r.Mult = 0
	if p.opt(`,"mult":`) {
		r.Mult = p.int64()
	}
	p.lit(`,"digest":`)
	digest := p.str()
	p.lit("}\n")
	if p.bad || len(p.rest) != 0 {
		return nil, errMalformed
	}
	r.Pattern, r.Digest = string(pattern), string(digest)
	s.line = appendRecordLine(s.line[:0], r)
	if !bytes.Equal(s.line, line) {
		return nil, errNotCanonical
	}
	s.digest, s.preimage = appendDigest(s.digest[:0], r, s.preimage)
	return s.digest, nil
}

// parseFooterLine is parseRecordLine's counterpart for the footer.
func parseFooterLine(line []byte, f *ShardFooter, s *lineScratch) error {
	p := lineParser{rest: line}
	p.lit(`{"kind":`)
	kind := p.str()
	p.lit(`,"records":`)
	f.Records = p.int64()
	p.lit(`,"digest":`)
	digest := p.str()
	p.lit("}\n")
	if p.bad || len(p.rest) != 0 {
		return errMalformed
	}
	f.Kind, f.Digest = string(kind), string(digest)
	s.line = appendFooterLine(s.line[:0], f)
	if !bytes.Equal(s.line, line) {
		return errNotCanonical
	}
	return nil
}
