//go:build race

package episteme

// raceEnabled reports whether the test binary runs under the race
// detector, where the quadratic n=4 oracle would outlast the test timeout.
const raceEnabled = true
