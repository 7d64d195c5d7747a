package episteme

import (
	"fmt"
	"maps"
	"testing"

	"repro/internal/action"
	"repro/internal/exchange"
	"repro/internal/model"
)

// TestThm75MatchesOneClassFlips is Theorem 7.5's ⇐ direction without
// knowledge: in each of E6's n ≤ 4 contexts, over fip, fip-nock and
// fip+pmin, the passing one-class flips are exactly the classes of
// CheckOptimalityFIP's ⇐ lines (○decided = false, characterization =
// true), and Popt under SO with n−t ≥ 2 has none (a knowledge-free slice
// of Cor 7.8).
func TestThm75MatchesOneClassFlips(t *testing.T) {
	for _, cx := range []struct {
		n, t  int
		crash bool
	}{{2, 1, false}, {3, 1, false}, {4, 1, false}, {3, 1, true}, {3, 2, true}, {4, 2, true}} {
		for _, st := range []struct {
			name string
			act  model.ActionProtocol
		}{{"fip", action.NewOpt(cx.t)}, {"fip-nock", action.NewOptNoCK(cx.t)}, {"fip+pmin", action.NewMin(cx.t)}} {
			label := fmt.Sprintf("%s n=%d t=%d crash=%v", st.name, cx.n, cx.t, cx.crash)
			sys := build(t, Context{Exchange: exchange.NewFIP(cx.n), T: cx.t, Crash: cx.crash}, st.act)
			flips, thm := sys.passingFlips(), map[flip]bool{}
			for _, line := range checkOptimality(t, sys, -1, 0) {
				var v, r, m, i int
				var lhs, rhs bool
				if _, err := fmt.Sscanf(line, "v=%d run %d time %d agent %d: ○decided=%t but characterization=%t", &v, &r, &m, &i, &lhs, &rhs); err != nil {
					t.Fatalf("%s: unreadable line %q: %v", label, line, err)
				}
				if !lhs {
					thm[flip{model.Value(v), m, i, sys.classAt(model.AgentID(i), m, r)}] = true
				}
			}
			if !maps.Equal(flips, thm) {
				t.Errorf("%s: %d passing flips, %d classes of ⇐ lines; they differ", label, len(flips), len(thm))
			}
			if st.name == "fip" && !cx.crash && cx.n-cx.t >= 2 && len(flips) != 0 {
				t.Errorf("%s: Popt has %d passing flips under SO with n−t ≥ 2", label, len(flips))
			}
			t.Logf("%s: %d passing flips", label, len(flips))
		}
	}
}
