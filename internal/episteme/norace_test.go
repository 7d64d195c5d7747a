//go:build !race

package episteme

const raceEnabled = false
