package executor_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/db/catalog"
	"repro/internal/db/executor"
	"repro/internal/db/executor/exectest"
	"repro/internal/db/probe"
	"repro/internal/db/value"
)

// recorder keeps every probe an execution emits.
type recorder []probe.ID

func (r *recorder) Emit(id probe.ID) { *r = append(*r, id) }

// sortPhase is the part of a trace from QsortEnter to QsortRet.
func sortPhase(tr []probe.ID) []probe.ID {
	from, to := -1, -1
	for i, id := range tr {
		if id == probe.QsortEnter && from < 0 {
			from = i
		}
		if id == probe.QsortRet {
			to = i
		}
	}
	if from < 0 || to < from {
		return nil
	}
	return tr[from : to+1]
}

// keptRows draws n rows of (k int, s varchar, m mixed, f float, seq
// int): k and s hold few distinct values and NULLs, so keys tie; m
// takes every type, float extremes and long strings included, as a
// computed column could; seq numbers the rows, so stability shows.
func keptRows(rng *rand.Rand, n int) []executor.Tuple {
	strs := []string{"", "a", "b", "ab", strings.Repeat("long varchar ", 40), "z"}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 2.5, -7}
	rows := make([]executor.Tuple, n)
	for i := range rows {
		k, s := value.NewInt(int64(rng.IntN(6))), value.NewStr(strs[rng.IntN(len(strs))])
		if rng.IntN(8) == 0 {
			k = value.NewNull()
		}
		if rng.IntN(8) == 0 {
			s = value.NewNull()
		}
		var m value.Value
		switch rng.IntN(6) {
		case 0:
			m = value.NewInt(rng.Int64() - math.MaxInt64/2)
		case 1:
			m = value.NewFloat(floats[rng.IntN(len(floats))])
		case 2:
			m = value.NewStr(strs[rng.IntN(len(strs))])
		case 3:
			m = value.NewDate(int64(rng.IntN(4)))
		case 4:
			m = value.NewBool(rng.IntN(2) == 0)
		default:
			m = value.NewNull()
		}
		rows[i] = executor.Tuple{k, s, m, value.NewFloat(rng.Float64()), value.NewInt(int64(i))}
	}
	return rows
}

var keptSch = catalog.NewSchema(
	catalog.Column{Name: "k", Type: value.Int}, catalog.Column{Name: "s", Type: value.Str},
	catalog.Column{Name: "m", Type: value.Int}, catalog.Column{Name: "f", Type: value.Float},
	catalog.Column{Name: "seq", Type: value.Int},
)

// Sort, Material and the hash-join build keep rows in a typed store;
// what they emit must be what keeping whole Tuples gave. On seeded
// mixed-type rows — NULLs, ties, descending and varchar keys, sorts
// narrowed to some columns — a Sort returns the reference sort's rows
// and makes exactly its comparisons (the same probes between QsortEnter
// and QsortRet), plain and poisoned. Poisoned, a Material replays the
// same rows on each of three rescans, and a HashJoin returns what a
// NestLoop over the same inputs does, key by key in the same order.
func TestKeptRowsMatchReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 51))
		rows := keptRows(rng, 300+rng.IntN(300))
		for _, tc := range []struct {
			cols []int
			keys []executor.SortKey
		}{
			{nil, []executor.SortKey{{Col: 0}}},
			{nil, []executor.SortKey{{Col: 1, Desc: true}, {Col: 0}}},
			{nil, []executor.SortKey{{Col: 2}}},
			{nil, []executor.SortKey{{Col: 0, Desc: true}, {Col: 2, Desc: true}, {Col: 1}}},
			{[]int{1, 2, 4}, []executor.SortKey{{Col: 0}}},
			{[]int{0, 2}, []executor.SortKey{{Col: 1, Desc: true}, {Col: 0}}},
			{[]int{3}, []executor.SortKey{{Col: 0}}},
		} {
			name := fmt.Sprintf("seed %d cols %v keys %v", seed, tc.cols, tc.keys)
			var refTrace recorder
			want := executor.ReferenceSort(executor.NewCtx(&refTrace), rows, tc.cols, tc.keys)
			for _, poisoned := range []bool{false, true} {
				var trace recorder
				c := executor.NewCtx(&trace)
				var out *catalog.Schema
				if tc.cols != nil {
					cs := make([]catalog.Column, len(tc.cols))
					for i, col := range tc.cols {
						cs[i] = keptSch.Columns[col]
					}
					out = catalog.NewSchema(cs...)
				}
				var plan executor.Node = &executor.Sort{C: c, Out: out, Cols: tc.cols, Keys: tc.keys,
					Child: &executor.ValuesScan{C: c, Out: keptSch, Rows: rows}}
				if poisoned {
					plan = exectest.Poison(plan)
				}
				got, err := exectest.Run(plan)
				if err != nil {
					t.Fatal(err)
				}
				if !executor.SameRows(got, want) {
					t.Fatalf("%s poisoned=%v: rows differ from the reference sort's", name, poisoned)
				}
				if g, w := sortPhase(trace), sortPhase(refTrace); !slices.Equal(g, w) {
					t.Fatalf("%s poisoned=%v: %d probes while sorting, the reference %d, or they differ", name, poisoned, len(g), len(w))
				}
			}
		}

		c := executor.NewCtx(nil)
		values := func(rows []executor.Tuple) executor.Node {
			return &executor.ValuesScan{C: c, Out: keptSch, Rows: rows}
		}
		outer := keptRows(rng, 3)
		var want []executor.Tuple
		for _, o := range outer {
			for _, r := range rows {
				want = append(want, append(append(executor.Tuple(nil), o...), r...))
			}
		}
		got, err := exectest.Run(exectest.Poison(&executor.NestLoop{C: c, Outer: values(outer),
			Inner: &executor.Material{C: c, Child: values(rows)}}))
		if err != nil {
			t.Fatal(err)
		}
		if !executor.SameRows(got, want) {
			t.Fatalf("seed %d: a Material under three rescans replayed other rows (%d, want %d)", seed, len(got), len(want))
		}

		probes := keptRows(rng, 150)
		w := keptSch.Len()
		for _, key := range []int{0, 1} {
			eq := []executor.Expr{&executor.BinOp{Op: executor.OpEQ,
				L: &executor.Var{Idx: key, T: keptSch.Columns[key].Type},
				R: &executor.Var{Idx: w + key, T: keptSch.Columns[key].Type}}}
			want, err := exectest.Run(&executor.NestLoop{C: c, Outer: values(probes), Inner: values(rows), Quals: eq})
			if err != nil {
				t.Fatal(err)
			}
			got, err := exectest.Run(exectest.Poison(&executor.HashJoin{C: c, Outer: values(probes), Inner: values(rows),
				OuterKey: key, InnerKey: key}))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || !executor.SameRows(got, want) {
				t.Fatalf("seed %d key %d: HashJoin returned %d rows, NestLoop %d, or they differ", seed, key, len(got), len(want))
			}
		}
	}
}

// BenchmarkSortKeep times what keeping rows costs in the shapes of the
// TPC-D GROUP BY sorts — Q13's 12,000 rows of one integer, Q15's 2,000
// rows of three numbers, Q4's 1,200 rows of one varchar — and a
// 2,000-row hash-join build: one execution (load, sort or build, and
// every row out) per op, rows read from memory.
func BenchmarkSortKeep(b *testing.B) {
	rng := rand.New(rand.NewPCG(42, 51))
	priorities := []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	gen := func(n int, row func() executor.Tuple) []executor.Tuple {
		rows := make([]executor.Tuple, n)
		for i := range rows {
			rows[i] = row()
		}
		return rows
	}
	c := executor.NewCtx(nil)
	values := func(rows []executor.Tuple) *executor.ValuesScan {
		return &executor.ValuesScan{C: c, Out: keptSch, Rows: rows}
	}
	sortOf := func(rows []executor.Tuple) executor.Node {
		return &executor.Sort{C: c, Child: values(rows), Keys: []executor.SortKey{{Col: 0}}}
	}
	q13 := gen(12000, func() executor.Tuple { return executor.Tuple{value.NewInt(int64(rng.IntN(40)))} })
	q15 := gen(2000, func() executor.Tuple {
		return executor.Tuple{value.NewInt(int64(rng.IntN(1000))), value.NewFloat(rng.Float64()), value.NewFloat(rng.Float64())}
	})
	q4 := gen(1200, func() executor.Tuple { return executor.Tuple{value.NewStr(priorities[rng.IntN(len(priorities))])} })
	build := gen(2000, func() executor.Tuple {
		return executor.Tuple{value.NewInt(int64(rng.IntN(1500))), value.NewFloat(rng.Float64()), value.NewStr(priorities[rng.IntN(5)])}
	})
	for _, bc := range []struct {
		name string
		rows int
		plan executor.Node
	}{
		{"q13_12000x1int", len(q13), sortOf(q13)},
		{"q15_2000x3num", len(q15), sortOf(q15)},
		{"q4_1200x1varchar", len(q4), sortOf(q4)},
		{"hashjoin_build_2000", len(build), &executor.HashJoin{C: c, Outer: values(build[:1]), Inner: values(build)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if err := bc.plan.Open(); err != nil {
					b.Fatal(err)
				}
				for {
					_, ok, err := bc.plan.Next()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
				}
				if err := bc.plan.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.rows), "ns/row")
		})
	}
}
