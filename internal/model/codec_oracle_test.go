package model_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/model"
)

// oldMarshalText is MarshalText as it was before AppendText: fmt into a
// strings.Builder. Cache keys, outcome records and shard indexes all
// embed this text, so AppendText must never render a pattern differently.
func oldMarshalText(p *model.Pattern) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d;h=%d;f=", p.N(), p.Horizon())
	first := true
	for i := 0; i < p.N(); i++ {
		if p.Faulty(model.AgentID(i)) {
			if !first {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(i))
			first = false
		}
	}
	b.WriteString(";d=")
	first = true
	for m := 0; m < p.Horizon(); m++ {
		for i := 0; i < p.N(); i++ {
			for j := 0; j < p.N(); j++ {
				if !p.Delivered(m, model.AgentID(i), model.AgentID(j)) {
					if !first {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, "%d:%d:%d", m, i, j)
					first = false
				}
			}
		}
	}
	return b.String()
}

// TestAppendTextMatchesOldRendering walks every SO(1) pattern at n=3 and
// n=4 and pins AppendText (and MarshalText, its wrapper) against the old
// rendering, appending after a prefix to check dst is extended in place.
func TestAppendTextMatchesOldRendering(t *testing.T) {
	for _, n := range []int{3, 4} {
		pats, err := adversary.NewSOPatterns(n, 1, 3, adversary.Options{})
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for p, ok := pats.Next(); ok; p, ok = pats.Next() {
			want := oldMarshalText(p)
			got, err := p.AppendText([]byte("prefix "))
			if err != nil || string(got) != "prefix "+want {
				t.Fatalf("n=%d pattern %d: AppendText = %q, %v; want %q after the prefix", n, count, got, err, want)
			}
			if text, err := p.MarshalText(); err != nil || string(text) != want {
				t.Fatalf("n=%d pattern %d: MarshalText = %q, %v; want %q", n, count, text, err, want)
			}
			count++
		}
		if count == 0 {
			t.Fatalf("n=%d: no patterns enumerated", n)
		}
	}
}
