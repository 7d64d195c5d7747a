package graph_test

// Property-based tests over communication graphs harvested from real runs:
// merge is commutative and idempotent on consistent views, reachability
// grids are prefix-closed, and keys are canonical.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/action"
	"repro/internal/adversary"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/graph"
	"repro/internal/model"
)

// harvest runs the FIP stack under a seeded random adversary and returns
// the run (views of different agents at equal times are consistent by
// construction).
func harvest(t *testing.T, seed int64) *engine.Result {
	t.Helper()
	n, tf := 4, 2
	rng := rand.New(rand.NewSource(seed))
	pat := adversary.RandomSO(rng, n, tf, tf+2, 0.5)
	inits := make([]model.Value, n)
	for i := range inits {
		inits[i] = model.Value(rng.Intn(2))
	}
	res, err := engine.Run(engine.Config{
		Exchange: exchange.NewFIP(n),
		Action:   action.NewOpt(tf),
		Pattern:  pat,
		Inits:    inits,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func viewAt(res *engine.Result, m, i int) *graph.Graph {
	return res.States[m][i].(*exchange.FIPState).Graph()
}

func TestMergeCommutativeOnConsistentViews(t *testing.T) {
	f := func(seed int64) bool {
		res := harvest(t, seed)
		m := 2
		a := viewAt(res, m, 0)
		b := viewAt(res, m, 1)
		ab := a.CloneFor(9)
		ab.Merge(b)
		ba := b.CloneFor(9)
		ba.Merge(a)
		return string(ab.AppendKey(nil)) == string(ba.AppendKey(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMergeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		res := harvest(t, seed)
		g := viewAt(res, 3, 2)
		h := g.Clone()
		h.Merge(g)
		return string(h.AppendKey(nil)) == string(g.AppendKey(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMergeAssociativeOnConsistentViews(t *testing.T) {
	f := func(seed int64) bool {
		res := harvest(t, seed)
		m := 2
		a, b, c := viewAt(res, m, 0), viewAt(res, m, 1), viewAt(res, m, 2)
		left := a.CloneFor(9)
		left.Merge(b)
		left.Merge(c)
		bc := b.CloneFor(9)
		bc.Merge(c)
		right := a.CloneFor(9)
		right.Merge(bc)
		return string(left.AppendKey(nil)) == string(right.AppendKey(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestReachGridPrefixClosed(t *testing.T) {
	// If (c,k) reaches the target, so does (c,k-1): an agent's earlier
	// state always flows into its later one.
	f := func(seed int64) bool {
		res := harvest(t, seed)
		g := viewAt(res, res.Horizon, 1)
		reach := g.ReachTo(1, g.M())
		for c := range reach {
			for k := 1; k < len(reach[c]); k++ {
				if reach[c][k] && !reach[c][k-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestOwnRowFullyReachable(t *testing.T) {
	// The owner's own past always reaches its present.
	f := func(seed int64) bool {
		res := harvest(t, seed)
		for i := 0; i < res.N; i++ {
			g := viewAt(res, res.Horizon, i)
			reach := g.ReachTo(model.AgentID(i), g.M())
			for k := 0; k <= g.M(); k++ {
				if !reach[i][k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestKeyCanonical(t *testing.T) {
	// Equal keys iff equal content: cloned graphs keep keys; any single
	// label flip changes the key.
	f := func(seed int64) bool {
		res := harvest(t, seed)
		g := viewAt(res, 2, 0)
		if string(g.Clone().AppendKey(nil)) != string(g.AppendKey(nil)) {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		h := g.Clone()
		// Flip one unknown edge to a known label (if any unknown exists).
		for tries := 0; tries < 50; tries++ {
			k := rng.Intn(h.M())
			i := model.AgentID(rng.Intn(h.N()))
			j := model.AgentID(rng.Intn(h.N()))
			if h.Edge(k, i, j) == graph.Unknown {
				h.SetEdge(k, i, j, graph.Sent)
				return string(h.AppendKey(nil)) != string(g.AppendKey(nil))
			}
		}
		return true // no unknown edge found; nothing to flip
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDecidedConsistentWithDecisionTable(t *testing.T) {
	// Ref.Decided must agree with scanning Ref.Decision over earlier
	// times, at every reachable point of a run.
	f := func(seed int64) bool {
		res := harvest(t, seed)
		tf := 2
		g := viewAt(res, res.Horizon, 3)
		r := graph.NewRef(tf, g)
		for j := 0; j < res.N; j++ {
			for k := 0; k <= g.M(); k++ {
				if !r.Known(model.AgentID(j), k) {
					continue
				}
				want := model.None
				for kp := 0; kp < k; kp++ {
					if a, known := r.Decision(model.AgentID(j), kp); known && a.IsDecide() {
						want = a.Decision()
						break
					}
				}
				if r.Decided(model.AgentID(j), k) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
