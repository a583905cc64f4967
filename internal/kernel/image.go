// Package kernel defines the synthetic program image of the database
// kernel: a basic-block-level model of every hot function of the
// engine (buffer manager, access methods, executor operations,
// expression machinery) plus deterministically generated cold code
// standing in for the parser, optimizer, utility and error-handling
// modules of the binary that the training workload never touches
// (Table 1 of the paper: only ~13% of PostgreSQL's static instructions
// are referenced).
//
// Each probe.ID maps to a path of basic blocks through these CFGs; the
// instrumented engine (packages db/...) emits probes, a Session
// translates them into dynamic basic-block traces, and the traces
// validate against the static CFG (calls/returns pair, every
// transition is a static edge). A session also counts consecutive
// probe pairs, from which Image.Profile assembles the weighted CFG
// without walking the trace.
package kernel

import (
	"math/rand"

	"repro/internal/db/probe"
	"repro/internal/program"
)

// Image is the built program model plus the probe-path table.
type Image struct {
	Prog *program.Program
	// paths[probe.ID] is the block path emitted for that probe, and
	// pathInstrs[probe.ID] its instruction count.
	paths      [probe.NumProbes][]program.BlockID
	pathInstrs [probe.NumProbes]uint64
}

// OpsSeedNames lists the Executor operation entry points used by the
// paper's knowledge-based "ops" seed selection (Section 5.1).
var OpsSeedNames = []string{
	"ExecSeqScan", "ExecIndexScan", "ExecNestLoop", "ExecHashJoin",
	"ExecMergeJoin", "ExecSort", "ExecAgg", "ExecGroup",
	"ExecMaterial", "ExecLimit", "ExecResult", "ExecProcNode",
}

// The generated cold code: coldProcs never-executed procedures, drawn
// by a generator seeded with coldSeed, give a static image whose
// executed fraction under the training workload lands near the paper's
// Table 1 ratios (roughly 20% of procedures, 12% of blocks, 13% of
// instructions).
const (
	coldProcs = 110
	coldSeed  = 19991 // ICPP 1999
)

// New builds the kernel image.
func New() *Image {
	b := program.NewBuilder()
	defineHotProcs(b)
	defineColdProcs(b)
	img := &Image{Prog: b.MustBuild()}
	img.buildPaths()
	return img
}

// leaf declares a two-block leaf procedure: body + return.
func leaf(b *program.Builder, name, module string, bodySize, retSize int) {
	p := b.Proc(name, module)
	p.Fall("entry", bodySize)
	p.Ret("ret", retSize)
}

// defineHotProcs declares every instrumented kernel function. Block
// sizes approximate compiled code (average close to the paper's ~4.7
// instructions per block); declaration order models link order by
// module, which is the paper's "orig" layout.
func defineHotProcs(b *program.Builder) {
	// --- bufmgr module ---
	// The buffer-table hash lookup is inlined into ReadBuffer's entry
	// (as the compiler inlines it); its probe maps to an empty path.
	rb := b.Proc("ReadBuffer", "bufmgr")
	rb.Fall("entry", 14)
	rb.Cond("check", 4, "miss")
	rb.Ret("hit", 7)
	rb.Call("miss", 5, "StrategyGetBuffer")
	rb.Call("read", 7, "smgrread")
	rb.Ret("fill", 11)

	sgb := b.Proc("StrategyGetBuffer", "bufmgr")
	sgb.Fall("entry", 7)
	sgb.Cond("loop", 5, "take")
	sgb.Jump("next", 3, "loop")
	sgb.Ret("take", 8)

	// --- smgr module ---
	leaf(b, "smgrread", "smgr", 12, 5)

	// --- heap access module ---
	// heap_deform (tuple decoding) is inlined into heap_getnext.tup and
	// heap_fetch.cont; its probe maps to an empty path.
	hgn := b.Proc("heap_getnext", "heap")
	hgn.Cond("entry", 7, "check")
	hgn.Cond("slot", 5, "nextpage")
	hgn.Fall("tup", 16)
	hgn.Ret("emit", 5)
	hgn.Jump("nextpage", 4, "check")
	hgn.Cond("check", 5, "eof")
	hgn.Call("read", 7, "ReadBuffer")
	hgn.Jump("cont", 5, "slot")
	hgn.Ret("eof", 3)

	hf := b.Proc("heap_fetch", "heap")
	hf.Call("entry", 9, "ReadBuffer")
	hf.Fall("cont", 15)
	hf.Ret("emit", 5)

	// --- nbtree module ---
	bts := b.Proc("bt_search", "nbtree")
	bts.Call("entry", 9, "ReadBuffer")
	bts.Fall("meta", 4)
	bts.Call("level", 5, "ReadBuffer")
	bts.Cond("cont", 10, "done")
	bts.Jump("descend", 5, "level")
	bts.Ret("done", 7)

	btn := b.Proc("bt_next", "nbtree")
	btn.Cond("entry", 4, "eof")
	btn.Call("read", 6, "ReadBuffer")
	btn.Cond("cont", 5, "step")
	btn.Ret("emit", 8)
	btn.Cond("step", 5, "seteof")
	btn.Jump("loop", 3, "entry")
	btn.Fall("seteof", 2)
	btn.Ret("eof", 3)

	// --- hash access module ---
	// The hash function is inlined into hash_search (and the hash-join
	// sites); its probe maps to an empty path.
	hsr := b.Proc("hash_search", "hash")
	hsr.Fall("entry", 11)
	hsr.Ret("cont", 5)

	hsn := b.Proc("hash_next", "hash")
	hsn.Cond("entry", 4, "eof")
	hsn.Call("read", 6, "ReadBuffer")
	hsn.Fall("cont", 4)
	hsn.Cond("check", 3, "chain")
	hsn.Cond("cmp", 5, "loop")
	hsn.Ret("emit", 6)
	hsn.Jump("loop", 2, "check")
	hsn.Cond("chain", 4, "seteof")
	hsn.Jump("follow", 3, "entry")
	hsn.Fall("seteof", 2)
	hsn.Ret("eof", 3)

	// --- adt module: operator functions (fmgr targets) ---
	leaf(b, "btint4cmp", "adt", 7, 3)
	leaf(b, "btfloat8cmp", "adt", 7, 3)
	leaf(b, "bttextcmp", "adt", 12, 3)
	leaf(b, "btdatecmp", "adt", 7, 3)
	leaf(b, "int4arith", "adt", 6, 3)
	leaf(b, "boolop", "adt", 4, 3)
	leaf(b, "textlike", "adt", 16, 5)

	// --- executor module ---
	epn := b.Proc("ExecProcNode", "executor")
	epn.CallIndirect("entry", 8)
	epn.Ret("ret", 4)

	eq := b.Proc("ExecQual", "executor")
	eq.Fall("entry", 6)
	eq.Cond("loop", 6, "pass")
	eq.Call("clause", 6, "ExecEvalExpr")
	eq.Cond("ccont", 6, "fail")
	eq.Jump("loopb", 4, "loop")
	eq.Ret("pass", 4)
	eq.Ret("fail", 4)

	eee := b.Proc("ExecEvalExpr", "executor")
	eee.Cond("entry", 6, "leaf")
	eee.Call("op1", 6, "ExecEvalExpr")
	eee.Cond("op1c", 4, "apply0")
	eee.Call("op2", 6, "ExecEvalExpr")
	eee.Fall("op2c", 4)
	eee.CallIndirect("apply", 8)
	eee.Ret("ret", 6)
	eee.Jump("apply0", 4, "apply")
	eee.Cond("leaf", 4, "cnst")
	eee.Ret("var", 6)
	eee.Ret("cnst", 4)

	prj := b.Proc("ExecProject", "executor")
	prj.Fall("entry", 6)
	prj.Cond("loop", 4, "done")
	prj.Call("col", 6, "ExecEvalExpr")
	prj.Jump("colc", 4, "loop")
	prj.Ret("done", 6)

	tc := b.Proc("tupcmp", "executor")
	tc.Fall("entry", 6)
	tc.Cond("loop", 4, "done")
	tc.CallIndirect("col", 6)
	tc.Jump("colc", 4, "loop")
	tc.Ret("done", 6)

	qs := b.Proc("qsort", "utils")
	qs.Fall("entry", 8)
	qs.Cond("loop", 6, "done")
	qs.CallIndirect("cmp", 6)
	qs.Jump("cmpc", 4, "loop")
	qs.Ret("done", 6)

	res := b.Proc("ExecResult", "executor")
	res.Fall("entry", 4)
	res.Call("call", 6, "ExecProcNode")
	res.Cond("cont", 4, "eof")
	res.Call("proj", 6, "ExecProject")
	res.Ret("ret", 4)
	res.Ret("eof", 4)

	ss := b.Proc("ExecSeqScan", "executor")
	ss.Fall("entry", 6)
	ss.CallIndirect("loop", 8)
	ss.Cond("cont", 6, "eof")
	ss.Cond("qualpt", 4, "emitd")
	ss.Call("qual", 6, "ExecQual")
	ss.Cond("qcont", 6, "next")
	ss.Ret("emit", 6)
	ss.Jump("next", 4, "loop")
	ss.Jump("emitd", 4, "emit")
	ss.Ret("eof", 4)

	ix := b.Proc("ExecIndexScan", "executor")
	ix.Cond("entry", 6, "init")
	ix.CallIndirect("loop", 6)
	ix.Cond("ncont", 6, "eof")
	ix.Call("fetch", 6, "heap_fetch")
	ix.Cond("fcont", 4, "emitd")
	ix.Call("qual", 6, "ExecQual")
	ix.Cond("qcont", 6, "loopb")
	ix.Ret("emit", 8)
	ix.Jump("loopb", 4, "loop")
	ix.Jump("emitd", 4, "emit")
	ix.Ret("eof", 6)
	ix.CallIndirect("init", 8)
	ix.Jump("icont", 4, "loop")

	nl := b.Proc("ExecNestLoop", "executor")
	nl.Cond("entry", 8, "outer")
	nl.CallIndirect("inner", 6)
	nl.Cond("icont", 6, "rescan")
	nl.Cond("fetch", 4, "join")
	nl.Call("hfetch", 6, "heap_fetch")
	nl.Fall("hcont", 4)
	nl.Cond("join", 6, "emitd")
	nl.Call("qual", 6, "ExecQual")
	nl.Cond("qcont", 6, "next")
	nl.Ret("emit", 8)
	nl.Jump("next", 4, "inner")
	nl.Jump("emitd", 4, "emit")
	nl.Fall("rescan", 6)
	nl.Call("outer", 6, "ExecProcNode")
	nl.Cond("ocont", 6, "eof")
	nl.Cond("ostart", 4, "back2")
	nl.CallIndirect("istart", 6)
	nl.Jump("icont2", 4, "inner")
	nl.Jump("back2", 4, "inner")
	nl.Ret("eof", 6)

	hj := b.Proc("ExecHashJoin", "executor")
	hj.Cond("entry", 8, "resume")
	hj.Fall("bentry", 4)
	hj.Call("bloop", 6, "ExecProcNode")
	hj.Cond("bcont", 6, "bdone")
	hj.Fall("bins", 12)
	hj.Jump("binsc", 8, "bloop")
	hj.Fall("bdone", 6)
	hj.Call("outer", 6, "ExecProcNode")
	hj.Cond("ocont", 6, "eof")
	hj.Fall("pcall", 12)
	hj.Fall("pcont", 8)
	hj.Cond("cand", 6, "outerj")
	hj.CallIndirect("ccall", 6)
	hj.Cond("ccont", 6, "cnext")
	hj.Cond("qualpt", 4, "emitd")
	hj.Call("qual", 6, "ExecQual")
	hj.Cond("qcont", 6, "cnextj")
	hj.Ret("emit", 8)
	hj.Jump("cnextj", 4, "cand")
	hj.Jump("emitd", 4, "emit")
	hj.Jump("cnext", 4, "cand")
	hj.Jump("outerj", 4, "outer")
	hj.Ret("eof", 6)
	hj.Jump("resume", 6, "cand")

	mj := b.Proc("ExecMergeJoin", "executor")
	mj.Fall("entry", 8)
	mj.Cond("d1", 6, "outeradv")
	mj.Cond("d2", 6, "inneradv")
	mj.Cond("d3", 6, "cmploc")
	mj.Cond("d4", 4, "qualloc")
	mj.Cond("d5", 4, "emitloc")
	mj.Ret("eofb", 6)
	mj.Call("outeradv", 6, "ExecProcNode")
	mj.Jump("oacont", 4, "d1")
	mj.Call("inneradv", 6, "ExecProcNode")
	mj.Jump("iacont", 4, "d1")
	mj.CallIndirect("cmploc", 6)
	mj.Jump("ccont", 6, "d1")
	mj.Call("qualloc", 6, "ExecQual")
	mj.Jump("qcont", 4, "d1")
	mj.Ret("emitloc", 8)

	srt := b.Proc("ExecSort", "executor")
	srt.Cond("entry", 8, "drain")
	srt.Call("lload", 6, "ExecProcNode")
	srt.Cond("lcont", 6, "lsort")
	srt.Jump("lback", 4, "lload")
	srt.Call("lsort", 8, "qsort")
	srt.Fall("scont", 6)
	srt.Cond("drain", 6, "seof")
	srt.Ret("semit", 8)
	srt.Ret("seof", 4)

	ag := b.Proc("ExecAgg", "executor")
	ag.Cond("entry", 8, "eof")
	ag.Call("loop", 6, "ExecProcNode")
	ag.Cond("cont", 6, "emit")
	ag.Cond("aggs", 4, "cstar")
	ag.Call("acall", 6, "ExecEvalExpr")
	ag.Fall("acont", 8)
	ag.Cond("anext", 4, "loopb")
	ag.Jump("aback", 2, "aggs")
	ag.Jump("loopb", 4, "loop")
	ag.Jump("cstar", 6, "anext")
	ag.Ret("emit", 10)
	ag.Ret("eof", 4)

	gr := b.Proc("ExecGroup", "executor")
	gr.Cond("entry", 6, "geof")
	gr.Cond("pend", 4, "accjmp")
	gr.Call("fetch1", 6, "ExecProcNode")
	gr.Cond("fcont", 4, "fempty")
	gr.Fall("accjmp", 2)
	gr.Cond("aggs", 4, "cstar")
	gr.Call("acall", 6, "ExecEvalExpr")
	gr.Fall("acont", 6)
	gr.Cond("anext", 4, "adone")
	gr.Jump("aback", 2, "aggs")
	gr.Fall("adone", 4)
	gr.Call("fetch2", 6, "ExecProcNode")
	gr.Cond("f2cont", 4, "flast")
	gr.Call("cmp", 6, "tupcmp")
	gr.Cond("ccont", 6, "boundary")
	gr.Jump("same", 4, "aggs")
	gr.Fall("flast", 4)
	gr.Fall("boundary", 6)
	gr.Ret("emit", 10)
	gr.Jump("cstar", 4, "anext")
	gr.Fall("fempty", 4)
	gr.Ret("geof", 4)

	mat := b.Proc("ExecMaterial", "executor")
	mat.Cond("entry", 6, "drain")
	mat.Call("mload", 6, "ExecProcNode")
	mat.Cond("mcont", 6, "mdone")
	mat.Jump("mback", 4, "mload")
	mat.Fall("mdone", 4)
	mat.Cond("drain", 6, "meof")
	mat.Ret("memit", 6)
	mat.Ret("meof", 4)

	lim := b.Proc("ExecLimit", "executor")
	lim.Cond("entry", 6, "leof")
	lim.Call("lcall", 6, "ExecProcNode")
	lim.Cond("lcont", 6, "ldrain")
	lim.Ret("lemit", 6)
	lim.Fall("ldrain", 2)
	lim.Ret("leof", 4)
}

// Cold-code module profile: name, proc count weight and typical sizes,
// loosely mirroring the bulk of a DBMS binary the DSS training set
// never executes (parser, optimizer, utility commands, error paths).
var coldModules = []struct {
	name   string
	weight int
}{
	{"parser", 5},
	{"optimizer", 5},
	{"commands", 4},
	{"catalog", 3},
	{"libpq", 3},
	{"utils", 4},
	{"elog", 2},
	{"tcop", 2},
}

// defineColdProcs appends coldProcs never-executed procedures with
// plausible CFG shapes. The generator is deterministic in coldSeed.
func defineColdProcs(b *program.Builder) {
	rng := rand.New(rand.NewSource(coldSeed))
	var weighted []string
	for _, m := range coldModules {
		for i := 0; i < m.weight; i++ {
			weighted = append(weighted, m.name)
		}
	}
	names := map[string]int{}
	for i := 0; i < coldProcs; i++ {
		module := weighted[rng.Intn(len(weighted))]
		names[module]++
		p := b.ColdProc(coldProcName(module, names[module]), module)
		genColdBody(p, rng)
	}
}

var coldStems = map[string][]string{
	"parser":    {"transformExpr", "parse_node", "scan_ident", "make_op", "gram_reduce"},
	"optimizer": {"planner_path", "join_cost", "index_paths", "prune_plan", "restrict_info"},
	"commands":  {"vacuum_rel", "copy_from", "create_index_cmd", "alter_table", "analyze_rel"},
	"catalog":   {"heap_create", "index_build_cat", "pg_operator_lookup", "aclcheck"},
	"libpq":     {"pq_putbytes", "pq_flush", "auth_handshake", "be_recv"},
	"utils":     {"elog_format", "memctx_reset", "dt_parse", "numeric_out", "guc_lookup"},
	"elog":      {"errstart", "errfinish", "abort_tx"},
	"tcop":      {"postgres_main", "exec_simple", "sigterm_handler"},
}

func coldProcName(module string, n int) string {
	stems := coldStems[module]
	stem := stems[n%len(stems)]
	return stem + "_" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// genColdBody emits a plausible procedure body: straight-line stretches
// with conditional branches to later labels, occasional early returns,
// ending in a return block. 8–26 blocks, 2–9 instructions each.
func genColdBody(p *program.ProcBuilder, rng *rand.Rand) {
	n := 6 + rng.Intn(14)
	labels := make([]string, n)
	for i := range labels {
		labels[i] = "b" + itoa(i)
	}
	for i := 0; i < n-1; i++ {
		size := 2 + rng.Intn(11)
		switch r := rng.Intn(10); {
		case r < 4 && i+2 < n:
			// Conditional branch to a random later block.
			tgt := i + 2 + rng.Intn(n-i-2)
			p.Cond(labels[i], size, labels[tgt])
		case r < 5:
			// Early return (error path).
			p.Ret(labels[i], size)
			// A return mid-procedure needs a following entry point that
			// is a branch target; ensure the next block is reachable by
			// making the previous cond point at it — simplest is to
			// continue; unreachable cold blocks are fine in a binary.
		case r < 6 && i > 1:
			// Backward jump (cold loop).
			p.Jump(labels[i], size, labels[rng.Intn(i)])
		default:
			p.Fall(labels[i], size)
		}
	}
	p.Ret(labels[n-1], 3+rng.Intn(5))
}
