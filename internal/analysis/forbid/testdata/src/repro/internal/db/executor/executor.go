package executor

import "repro/internal/db/probe"

type Ctx struct {
	Tr  probe.Tracer
	rec probe.Tracer
}

func (c *Ctx) emit(id probe.ID) {
	if c.rec != nil {
		c.rec.Emit(id)
	}
}

type scan struct{ Tr probe.Tracer }

func next(x *Ctx, s *scan, id probe.ID) {
	x.Tr.Emit(id) // want "repro/internal/db/executor.Ctx.Tr.Emit is forbidden here"
	probe.Emit(probe.Resolve(x.Tr), id)
	s.Tr.Emit(id) // another type's Tr field
	x.emit(id)
	var c Ctx
	c.Tr.Emit(id)           // want "Ctx.Tr.Emit is forbidden here"
	_ = probe.Or(x.Tr, nil) // want "repro/internal/db/probe.Or is forbidden here"
}
