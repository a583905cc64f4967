// Package probe is a testdata stand-in for the instrumentation
// package: Emit methods declared here are what tracerlock treats as
// probe emission.
package probe

// ID identifies one probe event.
type ID int

// Tracer receives probe events; implementations are user code.
type Tracer interface {
	Emit(ID)
}

// Nop discards events.
type Nop struct{}

func (Nop) Emit(ID) {}

// Note emits through any tracer — a helper whose emission must
// surface at call sites in other packages via the exported fact.
func Note(t Tracer, id ID) {
	if t != nil {
		t.Emit(id)
	}
}

// Resolve stands in for the real resolver: nil when t records nothing.
func Resolve(t Tracer) Tracer {
	if _, ok := t.(Nop); ok {
		return nil
	}
	return t
}

// Emit is the nil-checked emission of a resolved tracer — a package
// function named Emit, which tracerlock treats as emission itself.
func Emit(rec Tracer, id ID) {
	if rec != nil {
		rec.Emit(id)
	}
}
