// Package libtest is test support that no non-test package imports.
package libtest

import "example.com/m/internal/lib"

// Helper is called by lib_test.go alone.
func Helper() { lib.HelperOnly() }
