package forbid_test

import (
	"testing"

	"repro/internal/analysis/analyzertest"
	"repro/internal/analysis/forbid"
)

// TestForbid runs every table row against a package that breaks it and
// one that stays legal.
func TestForbid(t *testing.T) {
	analyzertest.Run(t, "testdata", forbid.Analyzer,
		"repro/internal/db/buffer", "repro/internal/db/storage", "repro/internal/db/value",
		"repro/cmd/tool", "repro/internal/experiments", "repro/internal/layout",
		"repro/dsdb/stcpipe", "repro/bench", "repro/internal/db/probe", "repro/internal/db/executor",
		"repro/internal/program", "repro/internal/fetch", "repro/internal/cache")
}
