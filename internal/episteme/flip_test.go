package episteme

import (
	"fmt"
	"maps"
	"testing"

	"repro/internal/action"
	"repro/internal/exchange"
	"repro/internal/model"
)

// flip names a one-class relabelling: agent i's class c at time m decides
// v.
type flip struct {
	v    model.Value
	m, i int
	c    int32
}

// passingFlips returns the flips of sys's labelling that keep the spec and
// decide earlier. Over Efip a protocol is a labelling of a frame that does
// not depend on it, so relabelling one pre-horizon class (m, i, c) of an
// agent that has not decided there as "decide v" is a competitor over the
// same runs, in which agent i alone decides otherwise: v, in round m+1, in
// the class's runs. The flip passes when v is some agent's initial
// preference in each of them (Validity, at faulty deciders too, as E6's
// spec column checks it), every other nonfaulty decider decides v in each
// where i is nonfaulty (Agreement), and i is nonfaulty in one: there it
// now decides earlier, so a passing flip is a protocol that strictly
// dominates the stack. It reads only the labelling's decisions, the
// frame's member lists and faulty masks, and the runs' initial
// preferences, all row functions.
func passingFlips(sys *System) map[flip]bool {
	flips, l := map[flip]bool{}, sys.frame.layout(0)
	for slot := range sys.Horizon * sys.N {
		m, i := slot/sys.N, slot%sys.N
		faulty, ms := sys.frame.faulty(m), sys.frame.members(slot)
		for c := range int32(len(ms.off) - 1) {
			rows := ms.of(c)
			if d := sys.labels.ofRow(l, int(rows[0]))[i]; d.round != 0 && int(d.round) <= m+1 {
				continue // decided before m, or deciding in round m+1: nothing earlier to gain
			}
			for _, v := range []model.Value{model.Zero, model.One} {
				spec, earlier := true, false
				for _, row := range rows {
					ds, f := sys.labels.ofRow(l, int(row)), faulty[row]
					spec = spec && sys.Exists(v, Point{Run: l.first(int(row))})
					if faultyAt(f, model.AgentID(i)) {
						continue
					}
					earlier = true
					for j, d := range ds {
						spec = spec && (j == i || faultyAt(f, model.AgentID(j)) || d.round == 0 || d.v == v)
					}
				}
				if spec && earlier {
					flips[flip{v, m, i, c}] = true
				}
			}
		}
	}
	return flips
}

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
			flips, thm := passingFlips(sys), map[flip]bool{}
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
