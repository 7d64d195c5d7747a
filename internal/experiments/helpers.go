package experiments

import (
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/model"
)

// stackFor builds a registered stack for the experiment tables. Names
// and bounds are compile-time constants here, so a failure is a bug.
func stackFor(name string, n, t int) core.Stack {
	return core.MustStack(name, core.WithN(n), core.WithT(t))
}

// forEachInits enumerates every assignment of initial preferences to n
// agents in the adversary package's canonical binary order, stopping
// early when fn returns false. The slice passed to fn is reused; copy it
// if it must be retained. The experiment grids use compile-time n, so a
// rejected bound is a bug and panics.
func forEachInits(n int, fn func([]model.Value) bool) {
	it, err := adversary.NewInitVectors(n)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	for inits, ok := it.Next(); ok; inits, ok = it.Next() {
		if !fn(inits) {
			return
		}
	}
}
