// Package lib declares one exported name for each case of dsdblint's
// test-only check; lib_test.go calls every one of them.
package lib

import "fmt"

// Used is called by cmd/app.
func Used() {}

// TestOnly is called by lib_test.go alone.
func TestOnly() {}

// Recurse calls itself, which keeps nothing alive.
func Recurse(n int) int {
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// HelperOnly is called by internal/libtest alone, which only tests
// import.
func HelperOnly() {}

// Box is used by lib_test.go alone; its methods name it as their
// receiver, which keeps nothing alive.
type Box struct{}

func (b *Box) Open() {}

// WindowsOnly is called by cmd/app/app_windows.go alone.
func WindowsOnly() {}

// Kind is used by cmd/app; only a test calls its String, which
// satisfies fmt.Stringer.
type Kind int

func (k Kind) String() string { return fmt.Sprint(int(k)) }

// Shape is used by cmd/app through Area; only a test calls Label.
type Shape interface {
	Area() int
	Label() string
}

// Square's methods satisfy Shape.
type Square struct{ Side int }

func (s Square) Area() int     { return s.Side * s.Side }
func (s Square) Label() string { return "square" }

// Seam is on the test's allow list.
func Seam() {}

// UsedSeam is on the test's allow list, and cmd/app calls it.
func UsedSeam() {}
