// Package exectest holds test support for the executor's tuple-slot
// contract (executor.Node): a tuple returned by Next is only valid
// until the node is called again. It is imported by tests only.
package exectest

import (
	"math"

	"repro/internal/db/executor"
	"repro/internal/db/value"
)

// garbage is what a poisoned tuple is overwritten with: no column of
// any test relation holds it, it is not NULL, and as a join key or an
// aggregate input it changes the result.
var garbage = value.Value{T: value.Str, I: math.MinInt64 + 0x5a5a, F: math.NaN(), S: "\x00poisoned tuple"}

// Poison wraps n and every operator below it — each child edge of the
// tree, rewired in place — in a node that makes the slot contract bite:
// it hands its parent a private copy of each tuple and overwrites that
// copy with garbage on the next Next, Open or Close. A consumer that
// kept the tuple instead of copying it then reads garbage, so a
// poisoned plan returns what the plain plan returns exactly when every
// retaining consumer copies.
func Poison(n executor.Node) executor.Node {
	executor.WrapChildren(n, Poison)
	return &poison{Node: n}
}

type poison struct {
	executor.Node
	last executor.Tuple // the tuple handed out by the latest Next
}

func (p *poison) scribble() {
	for i := range p.last {
		p.last[i] = garbage
	}
	p.last = nil
}

func (p *poison) Open() error {
	p.scribble()
	return p.Node.Open()
}

func (p *poison) Next() (executor.Tuple, bool, error) {
	p.scribble()
	tup, ok, err := p.Node.Next()
	if !ok || err != nil {
		return tup, ok, err
	}
	// A fresh copy each time, never the producer's own tuple: Material,
	// Sort and ValuesScan emit rows they replay or reorder later.
	p.last = make(executor.Tuple, len(tup))
	copy(p.last, tup)
	return p.last, true, nil
}

func (p *poison) Close() error {
	p.scribble()
	return p.Node.Close()
}
