// Package probe defines the instrumentation points woven through the
// database kernel. Each probe names a control-flow event — a function
// entry, a branch direction, a call site, a return path — that the
// kernel image (package kernel) maps to a path of basic blocks in the
// synthetic program model. Running a query with a real tracer attached
// therefore produces the dynamic basic-block trace the paper obtains
// by instrumenting the PostgreSQL binary with ATOM.
//
// Probes follow a strict call protocol so traces validate against the
// static CFG: a probe whose path ends in a call block must be followed
// by the callee's entry probe; a probe whose path ends in a return
// block must be followed by the caller's continuation probe. The
// validating trace recorder enforces this in tests.
//
// A nil Tracer means untraced. Each kernel entry point resolves the
// tracer it is handed once (Resolve) and nil-checks the result at every
// emission site (Emit), so an untraced query makes no interface call
// per event. NopTracer remains for callers that pass one; it resolves
// to nil like a nil Tracer.
package probe

import "time"

// ID names one instrumentation point.
type ID int32

// Tracer receives probe events.
type Tracer interface {
	Emit(ID)
}

// NopTracer discards all events. Kernel entry points resolve it to nil.
type NopTracer struct{}

// Emit implements Tracer.
func (NopTracer) Emit(ID) {}

// IOWaiter receives the time a query spends blocked on buffer-pool IO.
type IOWaiter interface {
	AddIOWait(d time.Duration)
}

// Carrier is the tracer an observed but untraced execution hands down
// the kernel: it records no events — Resolve maps it to nil — and
// carries the IOWaiter to which the buffer pool attributes its IO
// waits. A tracer that records and carries a waiter implements
// IOWaiter itself.
type Carrier struct{ W IOWaiter }

// Emit implements Tracer.
func (Carrier) Emit(ID) {}

// AddIOWait implements IOWaiter.
func (c Carrier) AddIOWait(d time.Duration) { c.W.AddIOWait(d) }

// Resolve returns the tracer that records t's events, or nil when t
// records none: t is nil, a NopTracer or a Carrier.
func Resolve(t Tracer) Tracer {
	switch t.(type) {
	case nil, NopTracer, Carrier:
		return nil
	}
	return t
}

// Emit records id on a resolved tracer, if there is one.
func Emit(rec Tracer, id ID) {
	if rec != nil {
		rec.Emit(id)
	}
}

// Probe identifiers, grouped by the kernel function they instrument.
// The kernel package defines the matching basic-block paths.
const (
	// ReadBuffer (buffer manager page lookup).
	BufGetEnter    ID = iota // entry + call BufTableLookup
	BufTableLookup           // BufTableLookup body (leaf)
	BufGetHit                // hit branch, returns
	BufGetMiss               // miss branch + call StrategyGetBuffer
	BufClockEnter            // StrategyGetBuffer entry
	BufClockSkip             // clock sweep: frame examined and skipped
	BufClockTake             // clock sweep: victim chosen, returns
	BufGetRead               // continuation + call smgrread
	SmgrRead                 // smgrread body (leaf)
	BufGetFill               // fill + pin, returns

	// heap_getnext (HeapScan.Next).
	HeapGetNextEnter    // entry
	HeapGetNextPage     // need next page + call ReadBuffer
	HeapGetNextPageCont // continuation
	HeapGetNextTuple    // tuple available + call heap_deform
	HeapDeform          // heap_deform_tuple body (leaf)
	HeapGetNextEmit     // returns with a tuple
	HeapGetNextNewPage  // page exhausted: release, loop to next page
	HeapGetNextEOF      // end of relation, returns

	// heap_fetch (Heap.Fetch by TID).
	HeapFetchEnter // entry + call ReadBuffer
	HeapFetchCont  // continuation + call heap_deform
	HeapFetchEmit  // returns

	// bt_search (BTree descent: SeekGE / SeekFirst).
	BtSearchEnter // entry + call ReadBuffer (meta page)
	BtSearchMeta  // continuation after meta read
	BtSearchLevel // one level + call ReadBuffer
	BtSearchCont  // internal node: binary search, loop down
	BtSearchDone  // leaf reached, returns

	// bt_next (BTreeScan.Next).
	BtNextEnter // entry + call ReadBuffer (leaf page)
	BtNextEmit  // entry available in leaf, returns
	BtNextStep  // advance to right sibling, loop
	BtNextEOF   // chain exhausted, returns
	BtNextDone  // called after EOF, returns immediately

	// hash_search (HashIndex.Lookup) and hash scan (HashScan.Next).
	HashSearchEnter // entry + call hashint4
	HashFunc        // hashint4 body (leaf)
	HashSearchCont  // continuation, returns
	HashNextEnter   // scan step entry + call ReadBuffer
	HashNextCont    // continuation
	HashNextCmp     // one entry compared, not a match (loop)
	HashNextEmit    // match found, returns
	HashNextChain   // follow overflow chain (loop)
	HashNextEOF     // chain exhausted, returns
	HashNextDone    // called after EOF, returns immediately

	// ExecProcNode (executor dispatch; wraps every child call).
	ExecProcEnter // entry + indirect call to the node routine
	ExecProcExit  // return path back to the caller

	// ExecQual (conjunctive predicate evaluation).
	ExecQualEnter // entry
	ExecQualExpr  // next clause + call ExecEvalExpr
	ExecQualCont  // clause true, loop
	ExecQualPass  // all clauses true, returns
	ExecQualFail  // clause false, returns

	// ExecEvalExpr (recursive expression evaluator).
	EvalExprVar     // variable leaf, returns
	EvalExprConst   // constant leaf, returns
	EvalExprOpCall  // operator node + recurse into first argument
	EvalExprOp2     // continuation + recurse into second argument
	EvalExprOpCont  // continuation + indirect call to operator function
	EvalExprOp1Only // unary operator: skip to the indirect call
	EvalExprRet     // returns

	// Operator functions (fmgr targets; leaf bodies).
	CmpInt  // btint4cmp / int4eq
	CmpFlt  // btfloat8cmp / float8 ops
	CmpStr  // bttextcmp / texteq
	CmpDate // btdatecmp / date ops
	ArithOp // int4pl, float8mul, ...
	BoolOp  // boolean combiners / list membership
	LikeOp  // textlike pattern matcher

	// ExecProject (target-list projection).
	ProjectEnter   // entry
	ProjectCol     // next column + call ExecEvalExpr
	ProjectColCont // continuation, loop
	ProjectDone    // tuple formed, returns

	// ExecResult (projection wrapper node).
	ResultCall    // entry + call ExecProcNode(child)
	ResultCont    // continuation
	ResultProject // tuple obtained: call ExecProject
	ResultDone    // projection done, returns
	ResultEOF     // child drained, returns

	// ExecSeqScan (also the skeleton for Filter and ValuesScan).
	SeqScanEnter      // entry
	SeqScanCall       // call heap_getnext (indirect: scan dispatch)
	SeqScanCont       // continuation
	SeqScanQualCall   // call ExecQual
	SeqScanQualCont   // continuation
	SeqScanEmit       // qualifying tuple, returns
	SeqScanEmitDirect // no qualifier: emit directly, returns
	SeqScanNext       // disqualified, loop
	SeqScanEOF        // relation exhausted, returns

	// ExecIndexScan.
	IdxScanEnter      // entry
	IdxScanInit       // first call: indirect call to bt/hash search
	IdxScanInitCont   // continuation, loop to the scan loop
	IdxScanNextCall   // indirect call to bt_next / hash next
	IdxScanNextCont   // continuation
	IdxScanFetch      // call heap_fetch
	IdxScanCont       // continuation
	IdxScanQualCall   // call ExecQual
	IdxScanQualCont   // continuation
	IdxScanEmit       // qualifying tuple, returns
	IdxScanEmitDirect // no qualifier: emit directly, returns
	IdxScanNext       // disqualified, loop
	IdxScanEOF        // index exhausted, returns

	// ExecNestLoop (plain and index flavours).
	NLEnter      // entry
	NLOuterCall  // call ExecProcNode(outer)
	NLOuterCont  // continuation
	NLOuterOK    // outer tuple obtained, proceed to inner
	NLStartScan  // index flavour: indirect call to bt/hash search
	NLStartCont  // continuation, proceed to inner pulls
	NLInnerCall  // indirect call: inner plan or index probe
	NLInnerCont  // continuation
	NLJoin       // no heap fetch needed: form joined row
	NLFetch      // call heap_fetch for an index match
	NLFetchCont  // continuation: form joined row
	NLRescan     // inner exhausted: rescan for next outer, loop
	NLQualCall   // call ExecQual on the joined row
	NLQualCont   // continuation
	NLNext       // disqualified, loop
	NLEmit       // match after qualifier, returns
	NLEmitDirect // match without qualifier, returns
	NLEOF        // outer exhausted, returns

	// ExecHashJoin.
	HJEnter        // entry
	HJResume       // re-entry with the hash table already built
	HJBuildStart   // build phase init (hash table allocation)
	HJBuildCall    // build: call ExecProcNode(inner)
	HJBuildCont    // continuation
	HJBuildInsert  // call hashint4 for the inner key
	HJBuildInsCont // continuation + insert into hash table, loop
	HJBuildDone    // build finished, proceed to outer fetch
	HJOuterCall    // probe: call ExecProcNode(outer)
	HJOuterCont    // continuation
	HJProbeCall    // call hashint4 for the outer key
	HJProbeCont    // continuation + bucket lookup
	HJCandCall     // call equality function on a bucket candidate
	HJCandCont     // continuation
	HJCandMiss     // candidate key differs, next candidate (loop)
	HJCandNext     // qualifier failed, next candidate (loop)
	HJBucketDone   // bucket drained, fetch next outer
	HJQualCall     // call ExecQual on the joined row
	HJQualCont     // continuation
	HJMatch        // match after qualifier, returns
	HJMatchDirect  // match without qualifier, returns
	HJEOF          // outer exhausted, returns

	// ExecMergeJoin.
	MJEnter     // entry
	MJOuterCall // call ExecProcNode(outer)
	MJOuterCont // continuation
	MJInnerCall // call ExecProcNode(inner)
	MJInnerCont // continuation
	MJCmpCall   // call comparator on the join keys
	MJCmpCont   // continuation
	MJQualCall  // call ExecQual on the joined row
	MJQualCont  // continuation
	MJEmit      // match, returns
	MJEOF       // an input exhausted, returns

	// ExecSort (load, qsort, drain).
	SortEnter    // entry
	SortLoadCall // load: call ExecProcNode(child)
	SortLoadCont // continuation
	SortLoadOK   // tuple appended to the workspace, loop
	SortSortCall // input loaded: call qsort
	QsortEnter   // qsort entry
	QsortCmpCall // qsort: indirect call to the tuple comparator
	QsortCmpCont // continuation, loop
	QsortRet     // qsort returns
	SortSortCont // continuation after qsort
	SortEmit     // emit next sorted tuple, returns
	SortEOF      // workspace drained, returns

	// Tuple comparator (called indirectly by qsort/group/mergejoin).
	TupCmpEnter   // entry
	TupCmpCol     // next key column + indirect call to btXXXcmp
	TupCmpColCont // continuation, loop
	TupCmpDone    // decided, returns

	// ExecAgg (plain aggregation).
	AggEnter         // entry
	AggChildCall     // call ExecProcNode(child)
	AggChildCont     // continuation
	AggAdvance       // next aggregate: call ExecEvalExpr
	AggAdvanceCont   // transition applied, next aggregate (loop)
	AggAdvanceLast   // transition applied, last aggregate: next tuple
	AggCountStar     // COUNT(*): bump counter, next aggregate (loop)
	AggCountStarLast // COUNT(*) as last aggregate: next tuple
	AggEmit          // input drained: form result row, returns
	AggEOF           // called again, returns empty

	// ExecGroup (grouped aggregation over sorted input).
	GrpEnter         // entry
	GrpFirstCall     // fetch first row of a group: call ExecProcNode
	GrpFirstCont     // continuation
	GrpFirstEOF      // no first row: input empty, returns
	GrpAccum         // begin accumulating a freshly fetched head
	GrpAccumPend     // begin accumulating the pending head
	GrpAdvance       // next aggregate: call ExecEvalExpr
	GrpAdvanceCont   // transition applied, next aggregate (loop)
	GrpAdvanceLast   // transition applied, last aggregate
	GrpCountStar     // COUNT(*): bump counter, next aggregate (loop)
	GrpCountStarLast // COUNT(*) as last aggregate
	GrpChildCall     // fetch next row: call ExecProcNode(child)
	GrpChildCont     // continuation
	GrpCmpCall       // call tuple comparator on group columns
	GrpCmpCont       // continuation
	GrpSame          // same group: accumulate, loop
	GrpEmit          // boundary: emit finished group, returns
	GrpDrain         // input drained: emit final group, returns
	GrpEOF           // already drained, returns

	// ExecMaterial.
	MatEnter     // entry
	MatChildCall // first pass: call ExecProcNode(child)
	MatChildCont // continuation
	MatLoadOK    // tuple appended to the store, loop
	MatLoadDone  // child drained: store complete
	MatEmit      // emit stored tuple, returns
	MatEOF       // store drained, returns

	// ExecLimit.
	LimEnter     // entry
	LimChildCall // call ExecProcNode(child)
	LimChildCont // continuation
	LimEmit      // within limit, returns
	LimDrained   // child drained, returns
	LimEOF       // limit already reached, returns

	// NumProbes is the number of probe IDs (sentinel).
	NumProbes
)
