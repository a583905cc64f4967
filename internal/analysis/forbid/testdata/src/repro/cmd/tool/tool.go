// Package tool blank-imports unsafe, and declares Compare.
package tool

import (
	_ "unsafe" // want "\"unsafe\" is forbidden here"
)

func Compare(a, b int) bool { return a < b } // want "func Compare is forbidden here: every paper table is a stcpipe.SimulateGrid literal"
