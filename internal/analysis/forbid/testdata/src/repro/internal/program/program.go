// Package program stands in for the layout package: a Layout's
// Validate method is forbidden, a Program's is not.
package program

type Program struct{}

func (p *Program) Validate() error { return nil }

type Layout struct{ Name string }

func (l *Layout) Validate(p *Program) error { return nil } // want "repro/internal/program.Layout.Validate is forbidden here: a layout is checked where it is made"
