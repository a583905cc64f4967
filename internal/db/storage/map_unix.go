//go:build unix

package storage

import (
	"os"
	"syscall"
)

// mapFile returns the first size bytes of f (size > 0) as a read-only
// shared mapping, valid after f is closed and until unmapFile.
func mapFile(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
}

// unmapFile releases a mapping made by mapFile.
func unmapFile(data []byte) error { return syscall.Munmap(data) }
