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

// Slab brings back the row index and the narrowed copy that kept rows
// as Values.
type Slab struct{ rows []Tuple }

type Tuple []int

func (s *Slab) Copy(t Tuple) Tuple                 { return t }
func (s *Slab) CopyCols(t Tuple, cols []int) Tuple { return t }      // want "repro/internal/db/executor.Slab.CopyCols is forbidden here"
func (s *Slab) Rows() []Tuple                      { return s.rows } // want "repro/internal/db/executor.Slab.Rows is forbidden here: Sort, Material and the hash-join build keep rows"

func keep(s *Slab, t Tuple) []Tuple {
	s.Copy(t)
	s.CopyCols(t, nil) // want "Slab.CopyCols is forbidden here"
	return s.Rows()    // want "Slab.Rows is forbidden here"
}
