package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer (or taken from the program's own obs stage counters,
// which carry a duration but no start: Start is then -1). Spans of one
// operation share Op; Parent is the index of the causing span, -1 for
// a root.
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the log's epoch
	Dur    int64  `json:"dur_ns"`
}

// spanLog keeps spans in memory until the run ends. Traced phases are
// bounded in queries (maxTracedQueries), which bounds the log.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// add records a span and returns its index (for children to name as
// their parent). A nil log records nothing: the untraced path.
func (l *spanLog) add(name string, op uint64, parent int, start time.Time, dur time.Duration) int {
	if l == nil {
		return -1
	}
	s := span{Name: name, Op: op, Parent: parent, Start: -1, Dur: int64(dur)}
	if !start.IsZero() {
		s.Start = int64(start.Sub(l.epoch))
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	i := len(l.spans) - 1
	l.mu.Unlock()
	return i
}

// negativeSelfTimes counts the spans whose children outlast them: a
// span's self time is its duration minus the part its child spans
// cover, and none may be negative.
func (l *spanLog) negativeSelfTimes() int {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	negative := 0
	for i, s := range l.spans {
		if s.Dur < child[i] {
			negative++
		}
	}
	return negative
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
