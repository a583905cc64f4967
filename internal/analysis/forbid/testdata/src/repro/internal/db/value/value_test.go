package value

import "unsafe"

// Test files may import unsafe.
func testSize() uintptr { return unsafe.Sizeof(0) }
