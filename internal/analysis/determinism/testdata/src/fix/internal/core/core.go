// Package core's fixture path ends in internal/core, so the ambient
// nondeterminism rule (time.Now, global math/rand) applies to it.
package core

import (
	"math/rand"
	"time"
)

func stamp() int64 {
	return time.Now().UnixNano() // want `time.Now in a digest-to-merge pipeline package`
}

func jitter() int {
	return rand.Intn(10) // want `global math/rand in a digest-to-merge pipeline package`
}

// Drawing from an explicitly seeded source is deterministic.
func seeded(r *rand.Rand) int {
	return r.Intn(10)
}

func newSeeded() *rand.Rand {
	return rand.New(rand.NewSource(42))
}

func suppressedStamp() int64 {
	return time.Now().Unix() //eba:nondeterministic-ok: diagnostics-only field, never digested
}

// appendRecordLine stands in for the outcome stream's append-style
// encoder: like a hash write, what it appends under a map range lands in
// randomized order.
func appendRecordLine(dst []byte, ord int) []byte {
	return append(dst, byte(ord))
}

func encodeInMapOrder(byOrdinal map[int]int) []byte {
	var stream []byte
	for _, ord := range byOrdinal { // want `map iteration order reaches the outcome-record encoder`
		stream = appendRecordLine(stream, ord)
	}
	return stream
}
