package profile

import "repro/internal/trace"

// AddTraceChunks is AddTrace split into the given number of chunks
// rather than one per core.
func (p *Profile) AddTraceChunks(t *trace.Trace, chunks int) { p.addTrace(t, chunks) }
