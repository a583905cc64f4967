package executor

import (
	"fmt"
	"sync"

	"repro/internal/db/access"
	"repro/internal/db/catalog"
	"repro/internal/db/probe"
	"repro/internal/db/value"
)

// batchTuples is how many qualifying tuples a worker accumulates per
// channel send: large enough to amortize the synchronization, small
// enough to keep the pipeline moving on selective predicates.
const batchTuples = 32

// defaultPartCap bounds each worker's output channel, in batches:
// enough slack to keep workers busy ahead of the consumer without
// materializing large result prefixes.
const defaultPartCap = 8

// ParallelScan is a partition-parallel sequential scan (a Gather over
// partial SeqScans, in PostgreSQL terms). The heap's pages are split
// into Degree contiguous ranges; one worker goroutine scans each
// range and applies the qualifiers, feeding qualifying tuples in
// batches through a bounded channel. The consumer merges the
// partitions in page order, so the emitted tuple sequence is
// identical to a serial sequential scan — parallelism changes timing,
// never results.
//
// Workers run outside the session trace: the instrumentation session
// tracer is single-threaded by design (the paper traces one
// instruction stream), so a traced query observes the scan from the
// coordinator side only, with the per-tuple consumer skeleton kept
// CFG-valid. Worker-side kernel work is still accounted for through
// the context's concurrency-safe WorkerTracer (event counts, not a
// trace). Each worker gets its own Ctx; the parent Ctx's Interrupt is
// shared and must be goroutine-safe (context.Context.Err is).
type ParallelScan struct {
	C    *Ctx
	Heap *access.Heap
	// Out and Cols are as for SeqScan.
	Out  *catalog.Schema
	Cols []int
	// Table names the scanned relation for EXPLAIN output.
	Table  string
	Quals  []Expr
	Degree int
	// PartCap overrides the per-worker channel capacity in batches
	// (tests); 0 selects the default.
	PartCap int

	parts  []chan []Tuple
	errs   []error
	stop   chan struct{}
	wg     sync.WaitGroup
	cur    int
	batch  []Tuple // front of parts[cur], partially consumed
	pos    int
	opened bool
}

// Open implements Node: it partitions the heap and starts the
// workers. Re-opening an open node tears the previous execution down
// first (Node contract: Open resets).
func (s *ParallelScan) Open() error {
	if s.opened {
		if err := s.Close(); err != nil {
			return err
		}
	}
	n := s.Degree
	if n < 1 {
		n = 1
	}
	pages := s.Heap.NumPages()
	if n > pages {
		n = pages
	}
	if n < 1 {
		n = 1 // empty heap: one worker over an empty range
	}
	chanCap := s.PartCap
	if chanCap <= 0 {
		chanCap = defaultPartCap
	}
	s.parts = make([]chan []Tuple, n)
	s.errs = make([]error, n)
	s.stop = make(chan struct{})
	s.cur = 0
	s.batch, s.pos = nil, 0
	s.opened = true
	// The worker tracer chain is built here, on the session goroutine:
	// workerTracer reads session-owned state (span, analyze operator)
	// that must not be touched from inside a worker.
	wtr := workerTracer(s.C)
	// Balanced contiguous ranges: the first pages%n workers take one
	// extra page.
	base, rem := pages/n, pages%n
	lo := 0
	for i := 0; i < n; i++ {
		hi := lo + base
		if i < rem {
			hi++
		}
		part := make(chan []Tuple, chanCap)
		s.parts[i] = part
		s.wg.Add(1)
		go s.worker(i, lo, hi, part, wtr)
		lo = hi
	}
	return nil
}

// worker scans pages [lo, hi), applying the qualifiers with its own
// untraced context, and streams qualifying tuples into part in
// batches. The error slot is written before the channel close, so
// the consumer's receive of the close is its happens-before edge.
func (s *ParallelScan) worker(i, lo, hi int, part chan<- []Tuple, wtr probe.Tracer) {
	defer s.wg.Done()
	defer close(part)
	// Workers emit into the context's concurrency-safe worker tracer
	// (usually a counting tracer), never into the session tracer. The
	// session's span rides along so worker IO waits are attributed,
	// and under EXPLAIN ANALYZE so is buffer-pool traffic (atomics).
	wc := &Ctx{Tr: wtr, Interrupt: s.C.Interrupt}
	scan := s.Heap.BeginRangeScan(lo, hi, s.Cols...)
	defer scan.Close()
	// A batch's tuples are deformed straight into its slab, one
	// allocation for all of them; a rejected tuple's place is reused by
	// the next candidate. The consumer owns a batch once it is sent.
	width := s.Out.Len()
	batch := make([]Tuple, 0, batchTuples)
	slab := make([]value.Value, batchTuples*width)
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		select {
		case part <- batch:
			batch = make([]Tuple, 0, batchTuples)
			slab = make([]value.Value, batchTuples*width)
			return true
		case <-s.stop:
			return false
		}
	}
	for {
		if wc.Interrupt != nil {
			if err := wc.Interrupt(); err != nil {
				s.errs[i] = err
				return
			}
		}
		at := len(batch) * width
		vals, _, ok, err := scan.Next(wc.Tr, slab[at:at:at+width])
		if err != nil {
			s.errs[i] = err
			return
		}
		if !ok {
			flush()
			return
		}
		if len(s.Quals) > 0 && !ExecQual(wc, s.Quals, Tuple(vals)) {
			continue
		}
		batch = append(batch, Tuple(vals))
		if len(batch) == batchTuples && !flush() {
			return
		}
	}
}

// Next implements Node: it drains the partitions in page order. The
// consumer-side instrumentation follows the in-memory scan skeleton
// (as ValuesScan does), keeping traced plans CFG-valid while the
// per-page heap work happens untraced in the workers.
func (s *ParallelScan) Next() (Tuple, bool, error) {
	if !s.opened {
		return nil, false, fmt.Errorf("executor: ParallelScan not opened")
	}
	c := s.C
	c.Tr.Emit(probe.SeqScanEnter)
	c.Tr.Emit(probe.SeqScanCall)
	c.Tr.Emit(probe.HeapGetNextEnter)
	c.Tr.Emit(probe.HeapGetNextEOF)
	c.Tr.Emit(probe.SeqScanCont)
	for {
		if s.pos < len(s.batch) {
			tup := s.batch[s.pos]
			s.pos++
			c.Tr.Emit(probe.SeqScanEmitDirect)
			return tup, true, nil
		}
		if s.cur >= len(s.parts) {
			c.Tr.Emit(probe.SeqScanEOF)
			return nil, false, nil
		}
		batch, ok := <-s.parts[s.cur]
		if ok {
			s.batch, s.pos = batch, 0
			continue
		}
		if err := s.errs[s.cur]; err != nil {
			return nil, false, err
		}
		s.cur++
	}
}

// Close implements Node: it stops the workers and waits for them. A
// worker blocked on a full partition channel unblocks via the stop
// channel. Close is idempotent.
func (s *ParallelScan) Close() error {
	if !s.opened {
		return nil
	}
	close(s.stop)
	s.wg.Wait()
	s.parts, s.errs, s.stop = nil, nil, nil
	s.batch, s.pos = nil, 0
	s.opened = false
	return nil
}

// Schema implements Node.
func (s *ParallelScan) Schema() *catalog.Schema { return s.Out }
