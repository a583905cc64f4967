package trace_test

import (
	"slices"
	"testing"

	"repro/internal/db/probe"
	"repro/internal/kernel"
	"repro/internal/program"
	"repro/internal/trace"
)

// TestFixedStoreEqualsAppend: every probe path of the kernel image has
// room for trace.PathWidth blocks, so a non-validating recorder takes
// it with one fixed-size store; the recording must hold exactly the
// events and instructions the plain append gives. So must the paths
// that take the append instead (a capacity below PathWidth, more than
// PathWidth blocks) and an empty one, each recorded after a fixed
// store whose scratch lies where its events go.
func TestFixedStoreEqualsAppend(t *testing.T) {
	img := kernel.New(kernel.DefaultConfig())
	p := img.Prog
	instrs := func(path []program.BlockID) (n uint64) {
		for _, b := range path {
			n += uint64(p.Block(b).Size)
		}
		return n
	}
	var paths [][]program.BlockID
	for id := probe.ID(0); id < probe.NumProbes; id++ {
		path := img.Path(id)
		if len(path) > trace.PathWidth || cap(path) < trace.PathWidth {
			t.Fatalf("probe %d: path of %d blocks has capacity %d, want at most and at least %d",
				id, len(path), cap(path), trace.PathWidth)
		}
		paths = append(paths, path)
	}
	wide := paths[probe.MJEmit] // six blocks: scratch in two slots
	short := slices.Clip(slices.Clone(wide[:3]))
	long := append(slices.Clone(wide), wide...)
	if cap(short) >= trace.PathWidth || len(long) <= trace.PathWidth {
		t.Fatalf("short path has capacity %d, long path %d blocks", cap(short), len(long))
	}
	paths = append(paths, wide, short, wide, long, wide, make([]program.BlockID, 0, trace.PathWidth), wide, nil, wide)

	got := trace.New(p)
	r := trace.NewRecorder(got, false)
	var want []program.BlockID
	var wantInstrs uint64
	for i, path := range paths {
		before := slices.Clone(path[:cap(path)])
		r.Path(path, instrs(path))
		want = trace.AppendEvents(want, path...)
		wantInstrs += instrs(path)
		if !slices.Equal(got.Blocks, want) || got.Instrs != wantInstrs {
			t.Fatalf("after path %d (%d blocks, capacity %d): %d events / %d instrs, want %d / %d (or contents differ)",
				i, len(path), cap(path), got.Len(), got.Instrs, len(want), wantInstrs)
		}
		if !slices.Equal(path[:cap(path)], before) {
			t.Fatalf("path %d was written to", i)
		}
	}
}
