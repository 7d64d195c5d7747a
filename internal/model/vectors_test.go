package model_test

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/model"
)

// TestMinimizeVectorsMatchesInitsHalf holds the inits half over every
// vector at once (MinimizeVectors, the expansion's per-pattern call) to
// the inits half per vector, over every pattern of the SO sweeps at n ≤ 4,
// t = 1 and at n = 3, t = 2, and of the crash sweeps at n ≤ 4, t ≤ 2, each
// at horizon t+2: the same representative inits, the same relabeling (the
// first coset member in search order to reach the minimum) and the same
// orbit. SO n=4,t=2's 10⁸ patterns are left out.
func TestMinimizeVectorsMatchesInitsHalf(t *testing.T) {
	for _, cx := range []struct {
		n, t  int
		crash bool
	}{{2, 1, false}, {3, 1, false}, {4, 1, false}, {3, 2, false}, {2, 1, true}, {3, 1, true}, {4, 1, true}, {3, 2, true}, {4, 2, true}} {
		label := fmt.Sprintf("SO n=%d t=%d", cx.n, cx.t)
		var pats interface {
			Next() (*model.Pattern, bool)
		}
		var err error
		if cx.crash {
			label = fmt.Sprintf("crash n=%d t=%d", cx.n, cx.t)
			pats, err = adversary.NewCrashPatterns(cx.n, cx.t, cx.t+2)
		} else {
			pats, err = adversary.NewSOPatterns(cx.n, cx.t, cx.t+2, adversary.Options{})
		}
		if err != nil {
			t.Fatal(err)
		}
		var c model.Canonicalizer
		out := make([]model.VectorOrbit, 1<<cx.n)
		count := 0
		for p, ok := pats.Next(); ok; p, ok = pats.Next() {
			c.SearchPattern(p)
			if err := model.VectorsMatchInits(&c, out); err != nil {
				t.Fatalf("%s, pattern %s: %v", label, p.Key(), err)
			}
			count++
		}
		if count == 0 {
			t.Fatalf("%s: no pattern", label)
		}
	}
}
