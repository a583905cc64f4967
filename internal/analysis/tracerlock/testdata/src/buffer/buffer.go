// Package buffer is a testdata stand-in: Manager.mu is ranked
// buffer.pool, which carries the NoTracer bit.
package buffer

import (
	"sync"

	"probe"
)

type Manager struct {
	mu     sync.Mutex
	frames int
	tr     probe.Tracer
	rec    probe.Tracer // tr resolved once: nil when untraced
}

func (m *Manager) badDirect() {
	m.mu.Lock()
	m.tr.Emit(1) // want "probe event emitted while buffer.pool is held"
	m.mu.Unlock()
}

func (m *Manager) emitGet() {
	m.tr.Emit(2)
}

func (m *Manager) badTransitive() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.emitGet() // want "call to emitGet emits probe events while buffer.pool is held"
	m.frames++
}

func (m *Manager) badCrossPkg() {
	m.mu.Lock()
	defer m.mu.Unlock()
	probe.Note(m.tr, 3) // want "call to Note emits probe events while buffer.pool is held"
}

func (m *Manager) badCallback(validate func(int) bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if validate(m.frames) { // want "call through a function value or interface while buffer.pool is held"
		m.frames = 0
	}
}

// badMissPath mirrors the historical miss-path shape: the hit arm
// unlocks and returns, so the fall-through still holds the pool
// mutex when it emits.
func (m *Manager) badMissPath(hit bool) int {
	m.mu.Lock()
	if hit {
		n := m.frames
		m.mu.Unlock()
		m.tr.Emit(probe.ID(n))
		return n
	}
	m.tr.Emit(9) // want "probe event emitted while buffer.pool is held"
	m.frames++
	m.mu.Unlock()
	return 0
}

// badResolved: resolving the tracer once and nil-checking it at the
// emission site is still emission, through the helper or inline.
func (m *Manager) badResolved() {
	rec := probe.Resolve(m.tr)
	m.mu.Lock()
	defer m.mu.Unlock()
	probe.Emit(rec, 5) // want "probe event emitted while buffer.pool is held"
	if rec != nil {
		rec.Emit(6) // want "probe event emitted while buffer.pool is held"
	}
}

// emit is the executor's per-execution helper shape: a method that
// nil-checks the resolved recorder.
func (m *Manager) emit(id probe.ID) {
	if m.rec != nil {
		m.rec.Emit(id)
	}
}

func (m *Manager) badResolvedHelper() {
	m.mu.Lock()
	m.emit(7) // want "call to emit emits probe events while buffer.pool is held"
	m.mu.Unlock()
	m.emit(8)
}

// legalBuffered is the PR 3 shape the analyzer must accept: read
// under the lock, emit after releasing it.
func (m *Manager) legalBuffered() {
	m.mu.Lock()
	n := m.frames
	m.mu.Unlock()
	m.tr.Emit(probe.ID(n))
}

// legalAllowed documents a reviewed exception through the escape
// hatch.
func (m *Manager) legalAllowed() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tr.Emit(4) //lint:allow tracerlock the pool owns this tracer and it is a plain counter
}
