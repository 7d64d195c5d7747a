package graph_test

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/action"
	"repro/internal/episteme"
	"repro/internal/exchange"
	"repro/internal/graph"
	"repro/internal/model"
)

// stringPermuteKey is the rewrite as it was before AppendPermuteKey: a
// strings.Builder and an n×n scratch row per key. The oracle the appending
// rewrite must match, key for key and error for error.
func stringPermuteKey(key string, perm []model.AgentID) (string, error) {
	n := len(perm)
	ownerStr, rest, ok := strings.Cut(key, "|")
	if !ok {
		return "", fmt.Errorf("graph: malformed key %q: no owner section", key)
	}
	owner, err := strconv.Atoi(ownerStr)
	if err != nil || owner < 0 || owner >= n {
		return "", fmt.Errorf("graph: malformed key %q: bad owner %q for n=%d", key, ownerStr, n)
	}
	mStr, rest, ok := strings.Cut(rest, "|")
	if !ok {
		return "", fmt.Errorf("graph: malformed key %q: no round section", key)
	}
	m, err := strconv.Atoi(mStr)
	if err != nil || m < 0 {
		return "", fmt.Errorf("graph: malformed key %q: bad round count %q", key, mStr)
	}
	want := n + m*(1+n*n)
	if len(rest) != want {
		return "", fmt.Errorf("graph: malformed key %q: body is %d bytes, want %d for n=%d m=%d",
			key, len(rest), want, n, m)
	}

	var b strings.Builder
	b.Grow(len(key))
	b.WriteString(strconv.Itoa(int(perm[owner])))
	b.WriteByte('|')
	b.WriteString(mStr)
	b.WriteByte('|')
	buf := make([]byte, n*n)
	for j := 0; j < n; j++ {
		buf[perm[j]] = rest[j]
	}
	b.Write(buf[:n])
	pos := n
	for k := 0; k < m; k++ {
		if rest[pos] != '|' {
			return "", fmt.Errorf("graph: malformed key %q: round %d section does not start with '|'", key, k)
		}
		pos++
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				buf[int(perm[i])*n+int(perm[j])] = rest[pos]
				pos++
			}
		}
		b.WriteByte('|')
		b.Write(buf)
	}
	return b.String(), nil
}

// permutations lists every permutation of n agents.
func permutations(n int) [][]model.AgentID {
	if n == 0 {
		return [][]model.AgentID{{}}
	}
	var out [][]model.AgentID
	for _, p := range permutations(n - 1) {
		for at := 0; at < n; at++ {
			q := append(append(append([]model.AgentID{}, p[:at]...), model.AgentID(n-1)), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// fipClassKeys returns every class key of fip's quotiented n-agent, t=1
// system, the time-Horizon slice included.
func fipClassKeys(t *testing.T, n int) []string {
	t.Helper()
	idx, err := episteme.BuildShardIndex(context.Background(), episteme.Context{Exchange: exchange.NewFIP(n), T: 1}, action.NewOpt(1), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, slot := range idx.ClassKeys {
		keys = append(keys, slot...)
	}
	return keys
}

// TestAppendPermuteKeyMatchesStringRewrite: every class key of fip at n=3
// and n=4 under every relabeling, and every malformed key of the graph and
// exchange tests, rewrites as the string rewrite did, into a buffer that
// already holds other bytes, with the same error text where it fails.
func TestAppendPermuteKeyMatchesStringRewrite(t *testing.T) {
	check := func(key string, perm []model.AgentID) {
		t.Helper()
		want, wantErr := stringPermuteKey(key, perm)
		got, err := graph.AppendPermuteKey([]byte("prefix:"), []byte(key), perm)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("AppendPermuteKey(%q, %v) error %v, the string rewrite's %v", key, perm, err, wantErr)
		}
		if wantErr != nil {
			want = ""
		}
		if string(got) != "prefix:"+want {
			t.Fatalf("AppendPermuteKey(%q, %v) = %q, the string rewrite's %q", key, perm, got, want)
		}
	}
	for _, n := range []int{3, 4} {
		keys := fipClassKeys(t, n)
		for _, perm := range permutations(n) {
			for _, key := range keys {
				check(key, perm)
			}
		}
		t.Logf("n=%d: %d class keys under %d relabelings", n, len(keys), len(permutations(n)))
	}
	min, basic, fip := exchange.NewMin(3), exchange.NewBasic(3), exchange.NewFIP(3)
	malformed := append([]string{
		// TestAnonymousPermuteKey's keys: none is a graph key.
		"min", "min:", "min:1:0:⊥", "min:0:1:⊥:⊥", "min:3:1:0:⊥", "minimal:0:1:⊥:⊥",
		"basic:0:1:⊥:⊥", "basic:0:1:⊥:⊥:0", "basics:0:1:⊥:⊥:0",
		string(min.Initial(1, model.Zero).AppendKey(nil)), string(basic.Initial(2, model.Zero).AppendKey(nil)),
		// A three-agent key is malformed for four.
		string(fip.Initial(0, model.One).AppendKey(nil)),
	}, graph.MalformedKeys...)
	for _, perm := range append(permutations(3), permutations(4)...) {
		for _, key := range malformed {
			check(key, perm)
		}
	}
}

// TestAppendPermuteKeyAllocs: rewriting into a buffer with room for the
// key allocates nothing.
func TestAppendPermuteKeyAllocs(t *testing.T) {
	keys := fipClassKeys(t, 4)
	key := []byte(keys[len(keys)-1]) // a time-Horizon key, the longest
	perm := []model.AgentID{2, 0, 3, 1}
	buf := make([]byte, 0, len(key))
	if allocs := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = graph.AppendPermuteKey(buf[:0], key, perm); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("AppendPermuteKey into a buffer of %d bytes allocates %.1f times per key, want 0", cap(buf), allocs)
	}
}
