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

// Config brings back the SEQ.3 shape as settings.
type Config struct {
	Width       int    // want "Width is forbidden here: fetch.Config is the caches alone"
	MaxBranches int    // want "MaxBranches is forbidden here"
	MaxLines    int    // want "MaxLines is forbidden here"
	MissPenalty uint64 // want "MissPenalty is forbidden here"
	LineBytes   int    // want "LineBytes is forbidden here"
}

func DefaultConfig() Config { return Config{} } // want "repro/internal/fetch.DefaultConfig is forbidden here: the fetch unit is SEQ.3"

// The SEQ.3 unit as constants is legal.
const (
	width       = 16
	maxBranches = 3
)
