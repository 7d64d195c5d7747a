//go:build !(darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd)

package cache

// lockDir takes no lock: this platform has no flock(2).
func lockDir(uintptr) error { return nil }
