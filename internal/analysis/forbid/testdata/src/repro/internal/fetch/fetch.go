// Package fetch re-checks a layout and keeps a path for overlapping
// blocks; takeByAddr, named in this comment, is declared below.
package fetch

import "repro/internal/program"

func simulate(p *program.Program, l *program.Layout) error {
	if err := p.Validate(); err != nil {
		return err
	}
	check := (*program.Layout).Validate // want "repro/internal/program.Layout.Validate is forbidden here"
	_ = check
	return l.Validate(p) // want "repro/internal/program.Layout.Validate is forbidden here"
}

func takeByAddr() bool { return false } // want "takeByAddr is forbidden here"
