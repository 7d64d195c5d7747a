package experiments

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/source"
)

// omitters counts the agents that omit at least one message in p: the
// faults that actually occur, where NumFaulty counts the ones allowed.
func omitters(p *model.Pattern) int {
	f := 0
	for i := 0; i < p.N(); i++ {
	sender:
		for m := 0; m < p.Horizon(); m++ {
			for j := 0; j < p.N(); j++ {
				if !p.Delivered(m, model.AgentID(i), model.AgentID(j)) {
					f++
					break sender
				}
			}
		}
	}
	return f
}

// TestEarlyStopping sweeps every pattern and initial vector and compares
// each nonfaulty agent's decision round with min(f+2, t+2), where f is
// the number of agents that omit at least one message. Pbasic, Popt and
// Popt-nock never exceed it: every agent sends in every round, so a
// missing message exposes its sender. Pmin can: Emin never reveals an
// omission, so no agent learns f, and the runs in which it decides later
// than the bound are pinned.
func TestEarlyStopping(t *testing.T) {
	for _, c := range []struct {
		crash   bool
		n, t    int
		minLate int
	}{
		{false, 3, 1, 4},
		{false, 4, 1, 5},
		{true, 3, 2, 124},
		{true, 4, 2, 475},
	} {
		kind, patterns := "SO", func(h int) (source.Patterns, error) { return source.SO(c.n, c.t, h, adversary.Options{}) }
		if c.crash {
			kind, patterns = "crash", func(h int) (source.Patterns, error) { return source.Crash(c.n, c.t, h) }
		}
		for _, name := range []string{"min", "basic", "fip", "fip-nock"} {
			t.Run(fmt.Sprintf("%s_n%d_t%d/%s", kind, c.n, c.t, name), func(t *testing.T) {
				st := stackFor(name, c.n, c.t)
				pats, err := patterns(st.Horizon())
				if err != nil {
					t.Fatal(err)
				}
				src, err := source.CrossInits(pats, st.N)
				if err != nil {
					t.Fatal(err)
				}
				late := 0
				mustStream(st, src, 0, func(res *engine.Result) {
					bound := min(omitters(res.Pattern)+2, c.t+2)
					for _, i := range res.Pattern.NonfaultySet() {
						if res.Round(i) > bound {
							late++
							return
						}
					}
				})
				want := 0
				if name == "min" {
					want = c.minLate
				}
				if late != want {
					t.Errorf("%d runs in which a nonfaulty agent decides after round min(f+2, t+2), want %d", late, want)
				}
			})
		}
	}
}
