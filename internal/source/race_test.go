//go:build race

package source

// raceEnabled reports whether the test binary runs under the race
// detector, where the single-goroutine differential test of Quotient
// leaves out its two largest products.
const raceEnabled = true
