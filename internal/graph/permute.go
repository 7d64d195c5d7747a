package graph

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/model"
)

// AppendPermuteKey appends to dst an interned graph key (the exact format
// Graph.AppendKey produces) rewritten under the agent relabeling perm, where
// perm[i] is the new identity of old agent i — the same convention as
// Pattern.Permute — and returns the extended buffer. The result is the key
// the permuted run's graph would intern for agent perm[owner]: the owner
// is relabeled, preference digit j moves to position perm[j], and the
// round-k edge digit (i, j) moves to (perm[i], perm[j]). The key is
// rewritten textually, so permuting works on merged shard indexes where
// the graphs themselves no longer exist; the digits are scattered straight
// into dst, so a dst with room for the key allocates nothing.
//
// AppendPermuteKey returns dst unextended and an error if the key is not a
// well-formed graph key for len(perm) agents.
func AppendPermuteKey(dst []byte, key []byte, perm []model.AgentID) ([]byte, error) {
	n := len(perm)
	ownerStr, rest, ok := bytes.Cut(key, []byte{'|'})
	if !ok {
		return dst, fmt.Errorf("graph: malformed key %q: no owner section", key)
	}
	owner, err := strconv.Atoi(string(ownerStr))
	if err != nil || owner < 0 || owner >= n {
		return dst, fmt.Errorf("graph: malformed key %q: bad owner %q for n=%d", key, ownerStr, n)
	}
	mStr, rest, ok := bytes.Cut(rest, []byte{'|'})
	if !ok {
		return dst, fmt.Errorf("graph: malformed key %q: no round section", key)
	}
	m, err := strconv.Atoi(string(mStr))
	if err != nil || m < 0 {
		return dst, fmt.Errorf("graph: malformed key %q: bad round count %q", key, mStr)
	}
	// rest = prefs (n digits) + m sections of "|" + n*n edge digits.
	want := n + m*(1+n*n)
	if len(rest) != want {
		return dst, fmt.Errorf("graph: malformed key %q: body is %d bytes, want %d for n=%d m=%d",
			key, len(rest), want, n, m)
	}

	// The body keeps its length and its separators; every digit is then
	// overwritten at its relabeled position.
	start := len(dst)
	dst = strconv.AppendInt(dst, int64(perm[owner]), 10)
	dst = append(append(append(dst, '|'), mStr...), '|')
	body := len(dst)
	dst = append(dst, rest...)
	for j := 0; j < n; j++ {
		dst[body+int(perm[j])] = rest[j]
	}
	for k, pos := 0, n; k < m; k, pos = k+1, pos+1+n*n {
		if rest[pos] != '|' {
			return dst[:start], fmt.Errorf("graph: malformed key %q: round %d section does not start with '|'", key, k)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dst[body+pos+1+int(perm[i])*n+int(perm[j])] = rest[pos+1+i*n+j]
			}
		}
	}
	return dst, nil
}
