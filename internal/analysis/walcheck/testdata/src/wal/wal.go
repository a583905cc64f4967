// Package wal is a testdata stand-in for the WAL writer; Writer's
// error-returning surface is what walcheck guards.
package wal

import "sync"

type Writer struct {
	mu  sync.Mutex
	seq uint64
}

func (w *Writer) Append(rec []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	return nil
}

func (w *Writer) ResetTo(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq = seq
	return nil
}

func (w *Writer) Close() error { return nil }
