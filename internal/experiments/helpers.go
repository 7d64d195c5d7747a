package experiments

import (
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/source"
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

// exhaustiveSource crosses every SO(t) failure pattern of st's size — or,
// with crash, every crash(t) pattern — with every initial vector. The
// grids use compile-time sizes, so a rejected bound is a bug and panics.
func exhaustiveSource(st core.Stack, crash bool) core.Source {
	pats, err := source.SO(st.N, st.T, st.Horizon(), adversary.Options{})
	if crash {
		pats, err = source.Crash(st.N, st.T, st.Horizon())
	}
	if err != nil {
		panic("experiments: " + err.Error())
	}
	src, err := source.CrossInits(pats, st.N)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return src
}
