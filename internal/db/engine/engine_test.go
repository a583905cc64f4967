package engine_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/db/catalog"
	"repro/internal/db/executor"
	"repro/internal/db/executor/exectest"
)

// probeNode is a stub executor node that counts lifecycle calls and
// can fail at a chosen point.
type probeNode struct {
	child     executor.Node
	failOpen  bool
	failAfter int // Next calls before erroring; -1 disables
	nexts     int
	opens     int
	closes    int
}

var errBoom = errors.New("boom")

func (p *probeNode) Open() error {
	p.opens++
	if p.failOpen {
		return errBoom
	}
	if p.child != nil {
		return p.child.Open()
	}
	return nil
}

func (p *probeNode) Next() (executor.Tuple, bool, error) {
	p.nexts++
	if p.failAfter >= 0 && p.nexts > p.failAfter {
		return nil, false, errBoom
	}
	return executor.Tuple{}, true, nil
}

func (p *probeNode) Close() error {
	p.closes++
	if p.child != nil {
		return p.child.Close()
	}
	return nil
}

func (p *probeNode) Schema() *catalog.Schema { return catalog.NewSchema() }

// TestRunClosesOnNextError checks the leak fix: when Next errors
// after a successful Open, the plan is still closed exactly once.
func TestRunClosesOnNextError(t *testing.T) {
	leaf := &probeNode{failAfter: -1}
	root := &probeNode{child: leaf, failAfter: 2}
	_, err := exectest.Run(root)
	if !errors.Is(err, errBoom) {
		t.Fatalf("Run err = %v, want errBoom", err)
	}
	if root.closes != 1 || leaf.closes != 1 {
		t.Fatalf("closes: root %d, leaf %d; want 1 each", root.closes, leaf.closes)
	}
}

// TestRunClosesOnOpenError checks that a failed Open still closes the
// plan, releasing children a partial Open may have acquired.
func TestRunClosesOnOpenError(t *testing.T) {
	root := &probeNode{failOpen: true, failAfter: -1}
	_, err := exectest.Run(root)
	if !errors.Is(err, errBoom) {
		t.Fatalf("Run err = %v, want errBoom", err)
	}
	if root.closes != 1 {
		t.Fatalf("closes = %d, want 1", root.closes)
	}
}

// TestJoinCloseBothChildren checks that join nodes close both inputs
// even when the first close fails, and stay idempotent.
func TestJoinCloseBothChildren(t *testing.T) {
	mkJoin := func(outer, inner executor.Node) []executor.Node {
		c := executor.NewCtx(nil)
		return []executor.Node{
			&executor.NestLoop{C: c, Outer: outer, Inner: inner},
			&executor.HashJoin{C: c, Outer: outer, Inner: inner},
			&executor.MergeJoin{C: c, Outer: outer, Inner: inner},
		}
	}
	for i, j := range mkJoin(&failingClose{}, &probeNode{failAfter: -1}) {
		if err := j.Close(); !errors.Is(err, errBoom) {
			t.Errorf("join %d: Close err = %v, want errBoom from outer", i, err)
		}
	}
	// The inner child must have been closed despite the outer failure.
	outer := &failingClose{}
	inner := &probeNode{failAfter: -1}
	nl := &executor.NestLoop{C: executor.NewCtx(nil), Outer: outer, Inner: inner}
	if err := nl.Close(); !errors.Is(err, errBoom) {
		t.Fatalf("Close err = %v, want errBoom", err)
	}
	if inner.closes != 1 {
		t.Fatalf("inner closes = %d, want 1 (inner leaked when outer close failed)", inner.closes)
	}
	if err := nl.Close(); !errors.Is(err, errBoom) {
		t.Fatalf("second Close err = %v", err)
	}
	if inner.closes != 2 {
		t.Fatalf("Close not idempotent: inner closes = %d", inner.closes)
	}
}

// TestInterruptStopsPipelineBreaker checks the executor-level
// cancellation hook: a sort must abort mid-load when Interrupt fires,
// not after materializing its whole input.
func TestInterruptStopsPipelineBreaker(t *testing.T) {
	leaf := &probeNode{failAfter: -1} // infinite input
	c := executor.NewCtx(nil)
	calls := 0
	errStop := fmt.Errorf("stop")
	c.Interrupt = func() error {
		calls++
		if calls > 5 {
			return errStop
		}
		return nil
	}
	srt := &executor.Sort{C: c, Child: leaf, Keys: []executor.SortKey{{Col: 0}}}
	_, err := exectest.Run(srt)
	if !errors.Is(err, errStop) {
		t.Fatalf("Run err = %v, want errStop", err)
	}
	if leaf.nexts > 10 {
		t.Fatalf("sort pulled %d tuples after interrupt; cancellation did not reach the load loop", leaf.nexts)
	}
}

// failingClose is a node whose Close always errors.
type failingClose struct{ probeNode }

func (f *failingClose) Close() error {
	f.closes++
	return errBoom
}
