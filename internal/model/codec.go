package model

import (
	"bytes"
	"cmp"
	"fmt"
	"strconv"
)

// MarshalText encodes the pattern in a compact, human-editable form:
//
//	n=<agents>;h=<horizon>;f=<faulty ids>;d=<m:i:j drops>
//
// e.g. "n=3;h=3;f=0;d=0:0:1,0:0:2,1:0:2". It implements
// encoding.TextMarshaler, so patterns embed directly in flags, JSON, and
// config files.
func (p *Pattern) MarshalText() ([]byte, error) {
	return p.AppendText(nil)
}

// AppendText appends the MarshalText form to dst, allocating only when
// dst lacks the room — what per-run callers (outcome records, cache
// keys) use with a reused buffer.
func (p *Pattern) AppendText(dst []byte) ([]byte, error) {
	dst = append(dst, "n="...)
	dst = appendInt(dst, p.n)
	dst = append(dst, ";h="...)
	dst = appendInt(dst, p.horizon)
	dst = append(dst, ";f="...)
	first := true
	for i, f := range p.faulty {
		if f {
			if !first {
				dst = append(dst, ',')
			}
			dst = appendInt(dst, i)
			first = false
		}
	}
	dst = append(dst, ";d="...)
	first = true
	k := 0
	for m := 0; m < p.horizon; m++ {
		for i := 0; i < p.n; i++ {
			for j := 0; j < p.n; j++ {
				if p.drops[k] {
					if !first {
						dst = append(dst, ',')
					}
					dst = appendInt(dst, m)
					dst = append(dst, ':')
					dst = appendInt(dst, i)
					dst = append(dst, ':')
					dst = appendInt(dst, j)
					first = false
				}
				k++
			}
		}
	}
	return dst, nil
}

// UnmarshalText decodes the MarshalText form, replacing the receiver's
// contents. It implements encoding.TextUnmarshaler. A field may repeat:
// the last n and h hold, and faulty ids and drops accumulate. An n or an
// h over 64 is refused (PatternShape).
func (p *Pattern) UnmarshalText(text []byte) error {
	n, h, err := PatternShape(text)
	if err != nil {
		return err
	}
	q := NewPattern(n, h)
	if err := decodePattern(text, &n, &h, q); err != nil {
		return err
	}
	*p = *q
	return nil
}

// maxTextShape bounds the n and the h a pattern text may name: agent sets
// are uint64 masks, and a text is not a way to allocate n·n·h drops.
const maxTextShape = 64

// PatternShape returns the agent count n and horizon h a MarshalText form
// names, checking its syntax as UnmarshalText does, without building the
// pattern. It refuses a text without n, and an n or an h over 64.
func PatternShape(text []byte) (n, h int, err error) {
	if err := decodePattern(text, &n, &h, nil); err != nil {
		return 0, 0, err
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("model: pattern text missing n")
	}
	if n > maxTextShape || h > maxTextShape {
		return 0, 0, fmt.Errorf("model: pattern text names n=%d, h=%d; at most %d of each", n, h, maxTextShape)
	}
	return n, h, nil
}

// decodePattern reads the fields of a MarshalText form in place, in order,
// setting n and h. With q nil it checks the fields' syntax; with q it
// applies the faulty ids and drops to q, checking them against q's shape:
// an out-of-range faulty id is reported before any out-of-range drop.
func decodePattern(text []byte, n, h *int, q *Pattern) error {
	var dropErr error
	for rest, more := text, true; more; {
		var field []byte
		field, rest, more = bytes.Cut(rest, []byte(";"))
		k, v, found := bytes.Cut(field, []byte("="))
		if !found {
			return fmt.Errorf("model: bad pattern field %q", field)
		}
		switch string(k) {
		case "n":
			x, err := strconv.Atoi(string(v))
			if err != nil || x <= 0 {
				return fmt.Errorf("model: bad agent count %q", v)
			}
			*n = x
		case "h":
			x, err := strconv.Atoi(string(v))
			if err != nil || x < 0 {
				return fmt.Errorf("model: bad horizon %q", v)
			}
			*h = x
		case "f", "d":
			for items, more := v, len(v) > 0; more; {
				var part []byte
				part, items, more = bytes.Cut(items, []byte(","))
				if k[0] == 'f' {
					f, err := strconv.Atoi(string(part))
					switch {
					case err != nil:
						return fmt.Errorf("model: bad faulty id %q", part)
					case q != nil && (f < 0 || f >= q.n):
						return fmt.Errorf("model: faulty id %d out of range", f)
					case q != nil:
						q.SetFaulty(AgentID(f))
					}
					continue
				}
				switch m, i, j, ok := parseDrop(part); {
				case !ok:
					return fmt.Errorf("model: bad drop %q", part)
				case q != nil && (m < 0 || m >= q.horizon || i < 0 || i >= q.n || j < 0 || j >= q.n):
					dropErr = cmp.Or(dropErr, fmt.Errorf("model: drop (%d,%d,%d) out of range", m, i, j))
				case q != nil:
					q.Drop(m, AgentID(i), AgentID(j))
				}
			}
		default:
			return fmt.Errorf("model: unknown pattern field %q", k)
		}
	}
	return dropErr
}

// parseDrop reads one m:i:j drop; ok is false unless it is three integers.
func parseDrop(part []byte) (m, i, j int, ok bool) {
	ms, rest, ok1 := bytes.Cut(part, []byte(":"))
	is, js, ok2 := bytes.Cut(rest, []byte(":"))
	m, errM := strconv.Atoi(string(ms))
	i, errI := strconv.Atoi(string(is))
	j, errJ := strconv.Atoi(string(js))
	return m, i, j, ok1 && ok2 && bytes.IndexByte(js, ':') < 0 && errM == nil && errI == nil && errJ == nil
}
