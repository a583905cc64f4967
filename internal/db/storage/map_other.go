//go:build !unix

package storage

import (
	"io"
	"os"
)

// mapFile on platforms without mmap reads the first size bytes of f
// into memory: generations are immutable, so a copy made once serves
// the same reads a mapping would.
func mapFile(f *os.File, size int) ([]byte, error) {
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, err
	}
	return data, nil
}

// unmapFile releases what mapFile returned; the collector does.
func unmapFile([]byte) error { return nil }
