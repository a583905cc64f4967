package lib_test

import (
	"testing"

	"example.com/m/internal/lib"
	"example.com/m/internal/libtest"
)

func TestAll(t *testing.T) {
	lib.TestOnly()
	lib.Recurse(1)
	lib.WindowsOnly()
	lib.Seam()
	libtest.Helper()
	new(lib.Box).Open()
	var s lib.Shape = lib.Square{Side: 1}
	if s.Label() != "square" || lib.Kind(1).String() != "1" {
		t.Fatal("wrong label")
	}
}
