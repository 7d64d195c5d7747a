package source

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/model"
)

// pulled hides a source's Skip, so Stride pulls every scenario it
// discards.
type pulled struct{ core.Source }

// stripeText renders a stripe as pattern text and inits, one scenario a
// line, in order.
func stripeText(t *testing.T, src Source) []string {
	t.Helper()
	var out []string
	for sc, ok := src.Next(); ok; sc, ok = src.Next() {
		text, err := sc.Pattern.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%s %v", text, sc.Inits))
	}
	return out
}

// TestStrideSkipMatchesPulling checks that a stripe of the CrossInits
// product comes out the same whether Stride skips or pulls the scenarios
// between its ordinals: SO and crash at n ∈ {2, 3, 4} and t ∈ {1, 2},
// every K from 1 to 2ⁿ+3 and every i < K — K > 2ⁿ skips whole patterns —
// with and without a pattern filter set as Quotient sets it.
func TestStrideSkipMatchesPulling(t *testing.T) {
	for _, crash := range []bool{false, true} {
		for n := 2; n <= 4; n++ {
			for tf := 1; tf <= 2 && tf < n; tf++ {
				// Horizon 2, or 1 for SO n=4,t=2 (24,833 patterns at 2).
				horizon := 2
				if n == 4 && tf == 2 {
					horizon = 1
				}
				for _, filtered := range []bool{false, true} {
					label := fmt.Sprintf("crash=%v n=%d t=%d filtered=%v", crash, n, tf, filtered)
					product := func() Source {
						var pats Patterns
						var err error
						if crash {
							pats, err = Crash(n, tf, horizon)
						} else {
							pats, err = SO(n, tf, horizon, adversary.Options{})
						}
						if err != nil {
							t.Fatal(err)
						}
						src, err := CrossInits(pats, n)
						if err != nil {
							t.Fatal(err)
						}
						if filtered {
							var canon model.Canonicalizer
							src.(*crossInits).keep = canon.CanonicalPattern
						}
						return src
					}
					whole := stripeText(t, product())
					if len(whole) == 0 {
						t.Fatalf("%s: empty product", label)
					}
					for k := 1; k <= 1<<n+3; k++ {
						for i := 0; i < k; i++ {
							skipping, err := Stride(product(), i, k)
							if err != nil {
								t.Fatal(err)
							}
							pulling, _ := Stride(pulled{product()}, i, k)
							sc, sok := skipping.Count()
							pc, pok := pulling.Count()
							if sc != pc || sok != pok {
								t.Fatalf("%s: stripe %d/%d counts %d/%v skipping, %d/%v pulling", label, i, k, sc, sok, pc, pok)
							}
							got, want := stripeText(t, skipping), stripeText(t, pulling)
							if !slices.Equal(got, want) {
								t.Fatalf("%s: stripe %d/%d skipping gives %d scenarios, pulling %d:\n%v\nwant\n%v", label, i, k, len(got), len(want), got, want)
							}
							var every []string
							for o := i; o < len(whole); o += k {
								every = append(every, whole[o])
							}
							if !slices.Equal(got, every) {
								t.Fatalf("%s: stripe %d/%d is not every %d-th scenario from %d", label, i, k, k, i)
							}
						}
					}
				}
			}
		}
	}
}

// TestCrossInitsSkip checks Skip's own arithmetic: it passes over init
// vectors and whole patterns, lands on the scenario Next would have
// reached, and reports a short count only at the end of the product.
func TestCrossInitsSkip(t *testing.T) {
	const n, tf, horizon = 3, 1, 2
	whole := stripeText(t, soSweep(t, n, tf, horizon))
	total := int64(len(whole))
	for _, k := range []int64{0, 1, 7, 8, 9, 17, total - 1, total, total + 5} {
		src := soSweep(t, n, tf, horizon).(core.SkipSource)
		if got, want := src.Skip(k), min(k, total); got != want {
			t.Fatalf("Skip(%d) = %d, want %d", k, got, want)
		}
		rest := stripeText(t, src)
		if !slices.Equal(rest, whole[min(k, total):]) {
			t.Fatalf("after Skip(%d) the product yields %d scenarios, want the last %d", k, len(rest), total-min(k, total))
		}
	}
}
