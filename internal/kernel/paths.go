package kernel

import (
	"repro/internal/db/probe"
	"repro/internal/program"
	"repro/internal/trace"
)

// buildPaths fills the probe → block-path table. Each entry lists the
// basic blocks executed when the corresponding instrumentation point
// fires; the sequences are constructed so that consecutive probe
// emissions always form legal static control flow (validated by
// TestAllQueryShapesValidate and the trace recorder).
func (img *Image) buildPaths() {
	p := img.Prog
	// Each path gets room for trace.PathWidth blocks, so that
	// Session.Emit records it with one fixed-size store.
	at := func(id probe.ID, names ...string) {
		path := make([]program.BlockID, len(names), max(len(names), trace.PathWidth))
		for i, n := range names {
			path[i] = p.MustBlock(n)
			img.pathInstrs[id] += uint64(p.Block(path[i]).Size)
		}
		img.paths[id] = path
	}

	// ReadBuffer and the buffer substrate.
	at(probe.BufGetEnter, "ReadBuffer.entry")
	at(probe.BufTableLookup) // inlined into ReadBuffer.entry
	at(probe.BufGetHit, "ReadBuffer.check", "ReadBuffer.hit")
	at(probe.BufGetMiss, "ReadBuffer.check", "ReadBuffer.miss")
	at(probe.BufClockEnter, "StrategyGetBuffer.entry")
	at(probe.BufClockSkip, "StrategyGetBuffer.loop", "StrategyGetBuffer.next")
	at(probe.BufClockTake, "StrategyGetBuffer.loop", "StrategyGetBuffer.take")
	at(probe.BufGetRead, "ReadBuffer.read")
	at(probe.SmgrRead, "smgrread.entry", "smgrread.ret")
	at(probe.BufGetFill, "ReadBuffer.fill")

	// heap_getnext.
	at(probe.HeapGetNextEnter, "heap_getnext.entry")
	at(probe.HeapGetNextPage, "heap_getnext.check", "heap_getnext.read")
	at(probe.HeapGetNextPageCont, "heap_getnext.cont")
	at(probe.HeapGetNextTuple, "heap_getnext.slot", "heap_getnext.tup")
	at(probe.HeapDeform) // inlined into heap_getnext.tup / heap_fetch.cont
	at(probe.HeapGetNextEmit, "heap_getnext.emit")
	at(probe.HeapGetNextNewPage, "heap_getnext.slot", "heap_getnext.nextpage")
	at(probe.HeapGetNextEOF, "heap_getnext.check", "heap_getnext.eof")

	// heap_fetch.
	at(probe.HeapFetchEnter, "heap_fetch.entry")
	at(probe.HeapFetchCont, "heap_fetch.cont")
	at(probe.HeapFetchEmit, "heap_fetch.emit")

	// bt_search.
	at(probe.BtSearchEnter, "bt_search.entry")
	at(probe.BtSearchMeta, "bt_search.meta")
	at(probe.BtSearchLevel, "bt_search.level")
	at(probe.BtSearchCont, "bt_search.cont", "bt_search.descend")
	at(probe.BtSearchDone, "bt_search.cont", "bt_search.done")

	// bt_next.
	at(probe.BtNextEnter, "bt_next.entry", "bt_next.read")
	at(probe.BtNextEmit, "bt_next.cont", "bt_next.emit")
	at(probe.BtNextStep, "bt_next.cont", "bt_next.step", "bt_next.loop")
	at(probe.BtNextEOF, "bt_next.cont", "bt_next.step", "bt_next.seteof", "bt_next.eof")
	at(probe.BtNextDone, "bt_next.entry", "bt_next.eof")

	// hash_search / hash_next.
	at(probe.HashSearchEnter, "hash_search.entry")
	at(probe.HashFunc) // inlined into its call sites
	at(probe.HashSearchCont, "hash_search.cont")
	at(probe.HashNextEnter, "hash_next.entry", "hash_next.read")
	at(probe.HashNextCont, "hash_next.cont")
	at(probe.HashNextCmp, "hash_next.check", "hash_next.cmp", "hash_next.loop")
	at(probe.HashNextEmit, "hash_next.check", "hash_next.cmp", "hash_next.emit")
	at(probe.HashNextChain, "hash_next.check", "hash_next.chain", "hash_next.follow")
	at(probe.HashNextEOF, "hash_next.check", "hash_next.chain", "hash_next.seteof", "hash_next.eof")
	at(probe.HashNextDone, "hash_next.entry", "hash_next.eof")

	// ExecProcNode.
	at(probe.ExecProcEnter, "ExecProcNode.entry")
	at(probe.ExecProcExit, "ExecProcNode.ret")

	// ExecQual.
	at(probe.ExecQualEnter, "ExecQual.entry")
	at(probe.ExecQualExpr, "ExecQual.loop", "ExecQual.clause")
	at(probe.ExecQualCont, "ExecQual.ccont", "ExecQual.loopb")
	at(probe.ExecQualPass, "ExecQual.loop", "ExecQual.pass")
	at(probe.ExecQualFail, "ExecQual.ccont", "ExecQual.fail")

	// ExecEvalExpr.
	at(probe.EvalExprVar, "ExecEvalExpr.entry", "ExecEvalExpr.leaf", "ExecEvalExpr.var")
	at(probe.EvalExprConst, "ExecEvalExpr.entry", "ExecEvalExpr.leaf", "ExecEvalExpr.cnst")
	at(probe.EvalExprOpCall, "ExecEvalExpr.entry", "ExecEvalExpr.op1")
	at(probe.EvalExprOp2, "ExecEvalExpr.op1c", "ExecEvalExpr.op2")
	at(probe.EvalExprOpCont, "ExecEvalExpr.op2c", "ExecEvalExpr.apply")
	at(probe.EvalExprOp1Only, "ExecEvalExpr.op1c", "ExecEvalExpr.apply0", "ExecEvalExpr.apply")
	at(probe.EvalExprRet, "ExecEvalExpr.ret")

	// Operator functions.
	at(probe.CmpInt, "btint4cmp.entry", "btint4cmp.ret")
	at(probe.CmpFlt, "btfloat8cmp.entry", "btfloat8cmp.ret")
	at(probe.CmpStr, "bttextcmp.entry", "bttextcmp.ret")
	at(probe.CmpDate, "btdatecmp.entry", "btdatecmp.ret")
	at(probe.ArithOp, "int4arith.entry", "int4arith.ret")
	at(probe.BoolOp, "boolop.entry", "boolop.ret")
	at(probe.LikeOp, "textlike.entry", "textlike.ret")

	// ExecProject.
	at(probe.ProjectEnter, "ExecProject.entry")
	at(probe.ProjectCol, "ExecProject.loop", "ExecProject.col")
	at(probe.ProjectColCont, "ExecProject.colc")
	at(probe.ProjectDone, "ExecProject.loop", "ExecProject.done")

	// ExecResult.
	at(probe.ResultCall, "ExecResult.entry", "ExecResult.call")
	at(probe.ResultCont, "ExecResult.cont")
	at(probe.ResultProject, "ExecResult.proj")
	at(probe.ResultDone, "ExecResult.ret")
	at(probe.ResultEOF, "ExecResult.eof")

	// ExecSeqScan.
	at(probe.SeqScanEnter, "ExecSeqScan.entry")
	at(probe.SeqScanCall, "ExecSeqScan.loop")
	at(probe.SeqScanCont, "ExecSeqScan.cont")
	at(probe.SeqScanQualCall, "ExecSeqScan.qualpt", "ExecSeqScan.qual")
	at(probe.SeqScanQualCont, "ExecSeqScan.qcont")
	at(probe.SeqScanEmit, "ExecSeqScan.emit")
	at(probe.SeqScanEmitDirect, "ExecSeqScan.qualpt", "ExecSeqScan.emitd", "ExecSeqScan.emit")
	at(probe.SeqScanNext, "ExecSeqScan.next")
	at(probe.SeqScanEOF, "ExecSeqScan.eof")

	// ExecIndexScan.
	at(probe.IdxScanEnter, "ExecIndexScan.entry")
	at(probe.IdxScanInit, "ExecIndexScan.init")
	at(probe.IdxScanInitCont, "ExecIndexScan.icont")
	at(probe.IdxScanNextCall, "ExecIndexScan.loop")
	at(probe.IdxScanNextCont, "ExecIndexScan.ncont")
	at(probe.IdxScanFetch, "ExecIndexScan.fetch")
	at(probe.IdxScanCont, "ExecIndexScan.fcont")
	at(probe.IdxScanQualCall, "ExecIndexScan.qual")
	at(probe.IdxScanQualCont, "ExecIndexScan.qcont")
	at(probe.IdxScanEmit, "ExecIndexScan.emit")
	at(probe.IdxScanEmitDirect, "ExecIndexScan.emitd", "ExecIndexScan.emit")
	at(probe.IdxScanNext, "ExecIndexScan.loopb")
	at(probe.IdxScanEOF, "ExecIndexScan.eof")

	// ExecNestLoop.
	at(probe.NLEnter, "ExecNestLoop.entry")
	at(probe.NLOuterCall, "ExecNestLoop.outer")
	at(probe.NLOuterCont, "ExecNestLoop.ocont")
	at(probe.NLOuterOK, "ExecNestLoop.ostart", "ExecNestLoop.back2")
	at(probe.NLStartScan, "ExecNestLoop.ostart", "ExecNestLoop.istart")
	at(probe.NLStartCont, "ExecNestLoop.icont2")
	at(probe.NLInnerCall, "ExecNestLoop.inner")
	at(probe.NLInnerCont, "ExecNestLoop.icont")
	at(probe.NLJoin, "ExecNestLoop.fetch", "ExecNestLoop.join")
	at(probe.NLFetch, "ExecNestLoop.fetch", "ExecNestLoop.hfetch")
	at(probe.NLFetchCont, "ExecNestLoop.hcont", "ExecNestLoop.join")
	at(probe.NLRescan, "ExecNestLoop.rescan")
	at(probe.NLQualCall, "ExecNestLoop.qual")
	at(probe.NLQualCont, "ExecNestLoop.qcont")
	at(probe.NLNext, "ExecNestLoop.next")
	at(probe.NLEmit, "ExecNestLoop.emit")
	at(probe.NLEmitDirect, "ExecNestLoop.emitd", "ExecNestLoop.emit")
	at(probe.NLEOF, "ExecNestLoop.eof")

	// ExecHashJoin.
	at(probe.HJEnter, "ExecHashJoin.entry")
	at(probe.HJResume, "ExecHashJoin.resume")
	at(probe.HJBuildStart, "ExecHashJoin.bentry")
	at(probe.HJBuildCall, "ExecHashJoin.bloop")
	at(probe.HJBuildCont, "ExecHashJoin.bcont")
	at(probe.HJBuildInsert, "ExecHashJoin.bins")
	at(probe.HJBuildInsCont, "ExecHashJoin.binsc")
	at(probe.HJBuildDone, "ExecHashJoin.bdone")
	at(probe.HJOuterCall, "ExecHashJoin.outer")
	at(probe.HJOuterCont, "ExecHashJoin.ocont")
	at(probe.HJProbeCall, "ExecHashJoin.pcall")
	at(probe.HJProbeCont, "ExecHashJoin.pcont")
	at(probe.HJCandCall, "ExecHashJoin.cand", "ExecHashJoin.ccall")
	at(probe.HJCandCont, "ExecHashJoin.ccont")
	at(probe.HJCandMiss, "ExecHashJoin.cnext")
	at(probe.HJCandNext, "ExecHashJoin.cnextj")
	at(probe.HJBucketDone, "ExecHashJoin.cand", "ExecHashJoin.outerj")
	at(probe.HJQualCall, "ExecHashJoin.qualpt", "ExecHashJoin.qual")
	at(probe.HJQualCont, "ExecHashJoin.qcont")
	at(probe.HJMatch, "ExecHashJoin.emit")
	at(probe.HJMatchDirect, "ExecHashJoin.qualpt", "ExecHashJoin.emitd", "ExecHashJoin.emit")
	at(probe.HJEOF, "ExecHashJoin.eof")

	// ExecMergeJoin (dispatch-style CFG).
	at(probe.MJEnter, "ExecMergeJoin.entry")
	at(probe.MJOuterCall, "ExecMergeJoin.d1", "ExecMergeJoin.outeradv")
	at(probe.MJOuterCont, "ExecMergeJoin.oacont")
	at(probe.MJInnerCall, "ExecMergeJoin.d1", "ExecMergeJoin.d2", "ExecMergeJoin.inneradv")
	at(probe.MJInnerCont, "ExecMergeJoin.iacont")
	at(probe.MJCmpCall, "ExecMergeJoin.d1", "ExecMergeJoin.d2", "ExecMergeJoin.d3", "ExecMergeJoin.cmploc")
	at(probe.MJCmpCont, "ExecMergeJoin.ccont")
	at(probe.MJQualCall, "ExecMergeJoin.d1", "ExecMergeJoin.d2", "ExecMergeJoin.d3",
		"ExecMergeJoin.d4", "ExecMergeJoin.qualloc")
	at(probe.MJQualCont, "ExecMergeJoin.qcont")
	at(probe.MJEmit, "ExecMergeJoin.d1", "ExecMergeJoin.d2", "ExecMergeJoin.d3",
		"ExecMergeJoin.d4", "ExecMergeJoin.d5", "ExecMergeJoin.emitloc")
	at(probe.MJEOF, "ExecMergeJoin.d1", "ExecMergeJoin.d2", "ExecMergeJoin.d3",
		"ExecMergeJoin.d4", "ExecMergeJoin.d5", "ExecMergeJoin.eofb")

	// ExecSort and qsort.
	at(probe.SortEnter, "ExecSort.entry")
	at(probe.SortLoadCall, "ExecSort.lload")
	at(probe.SortLoadCont, "ExecSort.lcont")
	at(probe.SortLoadOK, "ExecSort.lback")
	at(probe.SortSortCall, "ExecSort.lsort")
	at(probe.QsortEnter, "qsort.entry")
	at(probe.QsortCmpCall, "qsort.loop", "qsort.cmp")
	at(probe.QsortCmpCont, "qsort.cmpc")
	at(probe.QsortRet, "qsort.loop", "qsort.done")
	at(probe.SortSortCont, "ExecSort.scont")
	at(probe.SortEmit, "ExecSort.drain", "ExecSort.semit")
	at(probe.SortEOF, "ExecSort.drain", "ExecSort.seof")

	// tupcmp.
	at(probe.TupCmpEnter, "tupcmp.entry")
	at(probe.TupCmpCol, "tupcmp.loop", "tupcmp.col")
	at(probe.TupCmpColCont, "tupcmp.colc")
	at(probe.TupCmpDone, "tupcmp.loop", "tupcmp.done")

	// ExecAgg.
	at(probe.AggEnter, "ExecAgg.entry")
	at(probe.AggChildCall, "ExecAgg.loop")
	at(probe.AggChildCont, "ExecAgg.cont")
	at(probe.AggAdvance, "ExecAgg.aggs", "ExecAgg.acall")
	at(probe.AggAdvanceCont, "ExecAgg.acont", "ExecAgg.anext", "ExecAgg.aback")
	at(probe.AggAdvanceLast, "ExecAgg.acont", "ExecAgg.anext", "ExecAgg.loopb")
	at(probe.AggCountStar, "ExecAgg.aggs", "ExecAgg.cstar", "ExecAgg.anext", "ExecAgg.aback")
	at(probe.AggCountStarLast, "ExecAgg.aggs", "ExecAgg.cstar", "ExecAgg.anext", "ExecAgg.loopb")
	at(probe.AggEmit, "ExecAgg.emit")
	at(probe.AggEOF, "ExecAgg.eof")

	// ExecGroup.
	at(probe.GrpEnter, "ExecGroup.entry")
	at(probe.GrpFirstCall, "ExecGroup.pend", "ExecGroup.fetch1")
	at(probe.GrpFirstCont, "ExecGroup.fcont")
	at(probe.GrpFirstEOF, "ExecGroup.fempty", "ExecGroup.geof")
	at(probe.GrpAccum, "ExecGroup.accjmp")
	at(probe.GrpAccumPend, "ExecGroup.pend", "ExecGroup.accjmp")
	at(probe.GrpAdvance, "ExecGroup.aggs", "ExecGroup.acall")
	at(probe.GrpAdvanceCont, "ExecGroup.acont", "ExecGroup.anext", "ExecGroup.aback")
	at(probe.GrpAdvanceLast, "ExecGroup.acont", "ExecGroup.anext", "ExecGroup.adone")
	at(probe.GrpCountStar, "ExecGroup.aggs", "ExecGroup.cstar", "ExecGroup.anext", "ExecGroup.aback")
	at(probe.GrpCountStarLast, "ExecGroup.aggs", "ExecGroup.cstar", "ExecGroup.anext", "ExecGroup.adone")
	at(probe.GrpChildCall, "ExecGroup.fetch2")
	at(probe.GrpChildCont, "ExecGroup.f2cont")
	at(probe.GrpCmpCall, "ExecGroup.cmp")
	at(probe.GrpCmpCont, "ExecGroup.ccont")
	at(probe.GrpSame, "ExecGroup.same")
	at(probe.GrpEmit, "ExecGroup.boundary", "ExecGroup.emit")
	at(probe.GrpDrain, "ExecGroup.flast", "ExecGroup.boundary", "ExecGroup.emit")
	at(probe.GrpEOF, "ExecGroup.geof")

	// ExecMaterial.
	at(probe.MatEnter, "ExecMaterial.entry")
	at(probe.MatChildCall, "ExecMaterial.mload")
	at(probe.MatChildCont, "ExecMaterial.mcont")
	at(probe.MatLoadOK, "ExecMaterial.mback")
	at(probe.MatLoadDone, "ExecMaterial.mdone")
	at(probe.MatEmit, "ExecMaterial.drain", "ExecMaterial.memit")
	at(probe.MatEOF, "ExecMaterial.drain", "ExecMaterial.meof")

	// ExecLimit.
	at(probe.LimEnter, "ExecLimit.entry")
	at(probe.LimChildCall, "ExecLimit.lcall")
	at(probe.LimChildCont, "ExecLimit.lcont")
	at(probe.LimEmit, "ExecLimit.lemit")
	at(probe.LimDrained, "ExecLimit.ldrain", "ExecLimit.leof")
	at(probe.LimEOF, "ExecLimit.leof")
}
