// Package wire holds the primitives of the tree's hand-written JSON
// codecs: the canonical string and integer-array encoders, and the strict
// left-to-right parser their readers share. Each format that uses them —
// the outcome stream's lines (core), the cached run and the shard index
// (core, episteme), the result cache's index (cache) — writes exactly
// what encoding/json writes for its structs, and reads by parsing a
// superset of that and then demanding that re-encoding what was read
// reproduces the input byte for byte.
package wire

import (
	"bytes"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendInts appends xs as a JSON array, or null for a nil slice.
func AppendInts[T int | int32 | int64](dst []byte, xs []T) []byte {
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

// AppendList appends xs as a JSON array of elem's encodings, or null for
// a nil slice.
func AppendList[T any](dst []byte, xs []T, elem func([]byte, *T) []byte) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(dst, &xs[i])
	}
	return append(dst, ']')
}

// plainASCII[b] reports whether b stands for itself inside a canonical
// JSON string: printable ASCII other than the quote, the backslash and
// the three bytes the canonical form escapes for HTML safety.
var plainASCII = func() (plain [256]bool) {
	for b := byte(0x20); b < utf8.RuneSelf; b++ {
		plain[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return plain
}()

// AppendString appends s as a canonical JSON string. Plain ASCII —
// every pattern text, state key and digest the pipeline itself produces —
// is copied through; anything else is escaped the way encoding/json
// escapes it.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if plainASCII[b] {
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

// Parser walks one canonical document left to right. Its methods accept
// a superset of the canonical form — any decimal spelling of an integer,
// any JSON escape — and every reader built on it then demands that
// re-encoding what was read reproduces the input byte for byte, so the
// canonical form is what the encoder writes and nothing else. Bad sticks
// once any step fails; Rest is what is left to read.
type Parser struct {
	Rest []byte
	Bad  bool
}

// Opt consumes s if the input continues with it.
func (p *Parser) Opt(s string) bool {
	if len(p.Rest) < len(s) || string(p.Rest[:len(s)]) != s {
		return false
	}
	p.Rest = p.Rest[len(s):]
	return true
}

// Lit consumes the literal s, which must come next.
func (p *Parser) Lit(s string) {
	if !p.Opt(s) {
		p.Bad = true
	}
}

// Int64 consumes an optionally signed run of digits. Overflow wraps:
// the wrapped value re-encodes to different digits, so the input is
// refused all the same.
func (p *Parser) Int64() int64 {
	i, neg := 0, false
	if len(p.Rest) > 0 && p.Rest[0] == '-' {
		neg = true
		i = 1
	}
	first := i
	var v uint64
	for i < len(p.Rest) && p.Rest[i]-'0' <= 9 {
		v = v*10 + uint64(p.Rest[i]-'0')
		i++
	}
	if i == first {
		p.Bad = true
		return 0
	}
	p.Rest = p.Rest[i:]
	if neg {
		return -int64(v)
	}
	return int64(v)
}

// Array consumes null or an array of integers, appending the integers to
// dst; null reports which it was. A value out of T's range wraps, and so
// fails the re-encoding check like an overflow.
func Array[T int | int32 | int64](p *Parser, dst []T) (_ []T, null bool) {
	if p.Opt("null") {
		return dst, true
	}
	p.Lit("[")
	if p.Opt("]") {
		return dst, false
	}
	for !p.Bad {
		dst = append(dst, T(p.Int64()))
		if p.Opt("]") {
			break
		}
		p.Lit(",")
	}
	return dst, false
}

// Exact consumes null or an array of integers, parsed into scratch's
// storage, and returns nil or the integers in an exactly sized slice,
// with scratch for the next call.
func Exact[T int | int32 | int64](p *Parser, scratch []T) (xs, _ []T) {
	scratch, null := Array(p, scratch[:0])
	if null {
		return nil, scratch
	}
	return append(make([]T, 0, len(scratch)), scratch...), scratch
}

// Elems consumes null, reporting false, or an array, calling elem to
// consume each element.
func (p *Parser) Elems(elem func()) bool {
	if p.Opt("null") {
		return false
	}
	p.Lit("[")
	for i := 0; !p.Bad && !p.Opt("]"); i++ {
		if i > 0 {
			p.Lit(",")
		}
		elem()
	}
	return true
}

// Ints consumes null or an array of integers into dst's storage.
func (p *Parser) Ints(dst []int) []int {
	dst, null := Array(p, dst[:0])
	if null {
		return nil
	}
	if dst == nil {
		dst = []int{}
	}
	return dst
}

// Str consumes a JSON string and returns its content: a view of the
// input when it carries no escapes — every string the pipeline writes —
// and an unescaped copy when it does.
func (p *Parser) Str() []byte {
	p.Lit(`"`)
	if p.Bad {
		return nil
	}
	end := bytes.IndexByte(p.Rest, '"')
	if end < 0 {
		p.Bad = true
		return nil
	}
	if bytes.IndexByte(p.Rest[:end], '\\') < 0 {
		s := p.Rest[:end]
		p.Rest = p.Rest[end+1:]
		return s
	}
	var buf []byte
	for i := 0; i < len(p.Rest); i++ {
		switch b := p.Rest[i]; b {
		case '"':
			p.Rest = p.Rest[i+1:]
			return buf
		case '\\':
			i++
			if i == len(p.Rest) {
				p.Bad = true
				return nil
			}
			switch e := p.Rest[i]; e {
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
				if i+4 >= len(p.Rest) {
					p.Bad = true
					return nil
				}
				c, err := strconv.ParseUint(string(p.Rest[i+1:i+5]), 16, 16)
				if err != nil {
					p.Bad = true
					return nil
				}
				// The encoder never writes a surrogate escape, so one
				// becomes U+FFFD here and fails the re-encoding check.
				buf = utf8.AppendRune(buf, rune(c))
				i += 4
			default:
				p.Bad = true
				return nil
			}
		default:
			buf = append(buf, b)
		}
	}
	p.Bad = true
	return nil
}
