// Package layout is outside the Compare rule's scope, and outside
// internal/experiments.
package layout

func Compare(a, b int) int { return a - b }

type CompareResult struct{}
