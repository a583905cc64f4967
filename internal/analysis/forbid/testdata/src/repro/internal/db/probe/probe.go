package probe

type ID int

type Tracer interface{ Emit(ID) }

// Emit emits through an already resolved recorder.
func Emit(rec Tracer, id ID) {
	if rec != nil {
		rec.Emit(id)
	}
}

func Resolve(t Tracer) Tracer { return t }

func Or(t, def Tracer) Tracer { // want "repro/internal/db/probe.Or is forbidden here: an execution decides once"
	if t == nil {
		return def
	}
	return t
}

type set struct{}

// Or on a type is a method, not probe.Or.
func (set) Or(set) set { return set{} }
