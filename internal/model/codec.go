package model

import (
	"fmt"
	"strconv"
	"strings"
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
// contents. It implements encoding.TextUnmarshaler.
func (p *Pattern) UnmarshalText(text []byte) error {
	var n, h int
	var faulty []int
	type drop struct{ m, i, j int }
	var drops []drop

	for _, field := range strings.Split(string(text), ";") {
		k, v, found := strings.Cut(field, "=")
		if !found {
			return fmt.Errorf("model: bad pattern field %q", field)
		}
		switch k {
		case "n":
			x, err := strconv.Atoi(v)
			if err != nil || x <= 0 {
				return fmt.Errorf("model: bad agent count %q", v)
			}
			n = x
		case "h":
			x, err := strconv.Atoi(v)
			if err != nil || x < 0 {
				return fmt.Errorf("model: bad horizon %q", v)
			}
			h = x
		case "f":
			if v == "" {
				continue
			}
			for _, part := range strings.Split(v, ",") {
				x, err := strconv.Atoi(part)
				if err != nil {
					return fmt.Errorf("model: bad faulty id %q", part)
				}
				faulty = append(faulty, x)
			}
		case "d":
			if v == "" {
				continue
			}
			for _, part := range strings.Split(v, ",") {
				nums := strings.Split(part, ":")
				if len(nums) != 3 {
					return fmt.Errorf("model: bad drop %q", part)
				}
				var d drop
				var err error
				if d.m, err = strconv.Atoi(nums[0]); err != nil {
					return fmt.Errorf("model: bad drop %q", part)
				}
				if d.i, err = strconv.Atoi(nums[1]); err != nil {
					return fmt.Errorf("model: bad drop %q", part)
				}
				if d.j, err = strconv.Atoi(nums[2]); err != nil {
					return fmt.Errorf("model: bad drop %q", part)
				}
				drops = append(drops, d)
			}
		default:
			return fmt.Errorf("model: unknown pattern field %q", k)
		}
	}
	if n == 0 {
		return fmt.Errorf("model: pattern text missing n")
	}
	q := NewPattern(n, h)
	for _, f := range faulty {
		if f < 0 || f >= n {
			return fmt.Errorf("model: faulty id %d out of range", f)
		}
		q.SetFaulty(AgentID(f))
	}
	for _, d := range drops {
		if d.m < 0 || d.m >= h || d.i < 0 || d.i >= n || d.j < 0 || d.j >= n {
			return fmt.Errorf("model: drop (%d,%d,%d) out of range", d.m, d.i, d.j)
		}
		q.Drop(d.m, AgentID(d.i), AgentID(d.j))
	}
	*p = *q
	return nil
}
