// Package value holds the one non-test file allowed to import unsafe.
package value

import "unsafe"

func StrView(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
