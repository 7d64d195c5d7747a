//go:build race

package core

// raceEnabled reports whether the test binary runs under the race
// detector, where the orbit memo's differential test takes fewer K and
// parallelism combinations.
const raceEnabled = true
