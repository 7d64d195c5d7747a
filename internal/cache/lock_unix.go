//go:build darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd

package cache

import "syscall"

func lockDir(fd uintptr) error {
	return syscall.Flock(int(fd), syscall.LOCK_EX|syscall.LOCK_NB)
}
