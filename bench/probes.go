package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/dsdb"
	"repro/dsdb/obs"
	"repro/dsdb/qcache"
	"repro/dsdb/wcap"
	"repro/dsdb/wire"
	"repro/internal/db/buffer"
	"repro/internal/db/executor"
	"repro/internal/db/probe"
	"repro/internal/db/sql"
	"repro/internal/db/storage"
	"repro/internal/db/value"
	"repro/internal/db/wal"
)

// Layer probes: isolated loops over one layer's functions with
// seed-generated inputs. They are the same on every workload and run
// once per traced invocation. Each reports the median ns/op of a few
// batches (and allocations per op where the table declares them).

const (
	probeBatch   = 5 * time.Millisecond
	probeBatches = 7
)

// timeProbe sizes n so one batch of f(n) lasts about probeBatch, then
// returns the median ns/op over probeBatches batches and the
// allocations per op of the last one.
func timeProbe(quick bool, f func(n int)) (nsPerOp, allocsPerOp float64) {
	batch, batches := probeBatch, probeBatches
	if quick {
		batch, batches = probeBatch/50, 1
	}
	n := 1
	for {
		t0 := time.Now()
		f(n)
		if d := time.Since(t0); d >= batch || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var per []float64
	var m0, m1 runtime.MemStats
	for i := 0; i < batches; i++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		f(n)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	return median(per), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

var sink uint64 // keeps probe results alive

func runProbes(r *run) error {
	quick := r.cfg.quick
	rng := rand.New(rand.NewSource(r.cfg.seed))
	ns := func(name string, f func(n int)) {
		v, _ := timeProbe(quick, f)
		r.set(name, v)
	}
	nsAllocs := func(name, allocs string, f func(n int)) {
		v, a := timeProbe(quick, f)
		r.set(name, v)
		r.set(allocs, a)
	}

	// value
	vals := make([]value.Value, 1024)
	for i := range vals {
		switch i % 4 {
		case 0:
			vals[i] = value.NewInt(rng.Int63n(1 << 20))
		case 1:
			vals[i] = value.NewFloat(rng.Float64() * 1e5)
		case 2:
			vals[i] = value.NewStr(fmt.Sprintf("Customer#%09d", rng.Intn(1<<20)))
		case 3:
			vals[i] = value.NewDate(8000 + rng.Int63n(2500))
		}
	}
	ns("value.compare_ns", func(n int) {
		for i := 0; i < n; i++ {
			// i and i+4 share a type
			sink += uint64(value.Compare(vals[i&1023], vals[(i+4)&1023]))
		}
	})
	ns("value.hash_ns", func(n int) {
		for i := 0; i < n; i++ {
			sink += value.Hash(vals[i&1023])
		}
	})

	// sql and access: a small in-memory TPC-D database of each index
	// kind, reached through its engine.
	probeSF := 0.002
	if quick {
		probeSF = 0.0005
	}
	bt, err := dsdb.Open(dsdb.WithTPCD(probeSF), dsdb.WithSeed(dataSeed))
	if err != nil {
		return err
	}
	defer bt.Close()
	hs, err := dsdb.Open(dsdb.WithTPCD(probeSF), dsdb.WithSeed(dataSeed), dsdb.WithIndexKind(dsdb.Hash))
	if err != nil {
		return err
	}
	defer hs.Close()
	q9, _ := dsdb.TPCDQuery(9)
	var perr error
	nsAllocs("sql.compile_ns", "sql.compile_allocs", func(n int) {
		for i := 0; i < n; i++ {
			if _, err := sql.CompileQuery(bt.Engine(), executor.NewCtx(nil), q9); err != nil {
				perr = err
			}
		}
	})
	ns("sql.canonical_ns", func(n int) {
		for i := 0; i < n; i++ {
			key, _, err := sql.Analyze(q9)
			if err != nil {
				perr = err
			}
			sink += uint64(len(key))
		}
	})

	var nop probe.NopTracer
	eng := bt.Engine()
	heap := eng.Heap("lineitem")
	ns("access.heap_next_ns", func(n int) {
		var dst []value.Value
		for i := 0; i < n; {
			sc := heap.BeginScan()
			for ; i < n; i++ {
				vals, _, ok, err := sc.Next(nop, dst)
				if err != nil {
					perr = err
				}
				if !ok {
					break
				}
				dst = vals
			}
			sc.Close()
		}
	})
	lineitem, _ := eng.Cat.Table("lineitem")
	maxKey := int64(3 * bt.NumRows("orders"))
	btree := eng.BTreeFor(lineitem.IndexOn("l_orderkey"))
	h0, m0 := eng.Buf.Stats()
	seeks := 0
	ns("access.btree_seek_ns", func(n int) {
		for i := 0; i < n; i++ {
			sc, err := btree.SeekGE(nop, rng.Int63n(maxKey))
			if err != nil {
				perr = err
				continue
			}
			k, _, _, err := sc.Next(nop)
			if err != nil {
				perr = err
			}
			sink += uint64(k)
		}
		seeks += n
	})
	h1, m1 := eng.Buf.Stats()
	r.set("access.btree_pages_per_seek", float64(h1-h0+m1-m0)/float64(seeks))
	hlineitem, _ := hs.Engine().Cat.Table("lineitem")
	hash := hs.Engine().HashFor(hlineitem.IndexOn("l_orderkey"))
	ns("access.hash_lookup_ns", func(n int) {
		for i := 0; i < n; i++ {
			tid, _, err := hash.Lookup(nop, rng.Int63n(maxKey)).Next(nop)
			if err != nil {
				perr = err
			}
			sink += uint64(tid.Page)
		}
	})

	// buffer and storage: a store of 256 pages under pools that do and
	// do not hold it; the disk-backed store is a checkpointed copy.
	const pages = 256
	mem := storage.NewStore(1)
	pg := storage.NewPage()
	pg.Init()
	for i := 0; i < pages; i++ {
		if _, err := mem.AllocPage(0); err != nil {
			return err
		}
		if err := mem.WritePage(0, i, pg); err != nil {
			return err
		}
	}
	getRelease := func(m *buffer.Manager) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				b, err := m.Get(nop, 0, i%pages)
				if err != nil {
					perr = err
					return
				}
				m.Release(b, false)
			}
		}
	}
	ns("buffer.get_hit_ns", getRelease(buffer.New(mem, 2*pages)))
	ns("buffer.get_miss_ns", getRelease(buffer.New(mem, pages/8)))

	dir, err := r.tmpDir("probe")
	if err != nil {
		return err
	}
	diskDir := filepath.Join(dir, "store")
	if err := os.MkdirAll(diskDir, 0o755); err != nil {
		return err
	}
	disk, err := storage.OpenDiskStore(diskDir, 0, 1)
	if err != nil {
		return err
	}
	for i := 0; i < pages; i++ {
		if _, err := disk.AllocPage(0); err != nil {
			return err
		}
		if err := disk.WritePage(0, i, pg); err != nil {
			return err
		}
	}
	if err := disk.WriteGeneration(1); err != nil {
		return err
	}
	if err := disk.PromoteGeneration(1); err != nil {
		return err
	}
	ns("storage.page_read_ns", func(n int) {
		for i := 0; i < n; i++ {
			if err := disk.ReadPage(0, i%pages, pg); err != nil {
				perr = err
			}
		}
	})
	if err := disk.Close(); err != nil {
		return err
	}

	// wal
	tuple := storage.EncodeTuple(vals[:15], nil)
	rec := wal.Insert{Table: "lineitem", Tuple: tuple}
	payload, err := wal.EncodeRecord(rec)
	if err != nil {
		return err
	}
	ns("wal.encode_ns", func(n int) {
		for i := 0; i < n; i++ {
			p, _ := wal.EncodeRecord(rec)
			sink += uint64(len(p))
		}
	})
	ns("wal.decode_ns", func(n int) {
		for i := 0; i < n; i++ {
			if _, err := wal.DecodeRecord(payload); err != nil {
				perr = err
			}
		}
	})
	appendProbe := func(sub string, opts wal.Options) (func(n int), func() error, error) {
		w, err := wal.OpenWriter(filepath.Join(dir, sub), wal.Tail{}, opts)
		if err != nil {
			return nil, nil, err
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				if err := w.Append(rec); err != nil {
					perr = err
				}
			}
		}, w.Close, nil
	}
	f, closeW, err := appendProbe("wal", wal.Options{})
	if err != nil {
		return err
	}
	nsAllocs("wal.append_ns", "wal.append_allocs", f)
	if err := closeW(); err != nil {
		return err
	}
	f, closeW, err = appendProbe("wal-sync", wal.Options{SyncEvery: true})
	if err != nil {
		return err
	}
	v, _ := timeProbe(quick, f)
	r.set("wal.append_sync_us", v/1e3)
	if err := closeW(); err != nil {
		return err
	}

	// qcache: a 24-row result (Q9's shape) under a key the size of Q9.
	res := &qcache.Result{Columns: []string{"nation", "o_year", "sum_profit"}}
	for i := 0; i < 24; i++ {
		res.Rows = append(res.Rows, []value.Value{value.NewStr("ARGENTINA"), value.NewInt(int64(1992 + i%7)), value.NewFloat(rng.Float64() * 1e6)})
	}
	fp := qcache.Footprint{Tables: []string{"lineitem", "orders"}, Epochs: []uint64{1, 1}}
	cache := qcache.New(cacheBytes)
	cache.Put(q9, fp, res, -1)
	epoch := uint64(1)
	cur := func(string) uint64 { return epoch }
	nsAllocs("qcache.get_hit_ns", "qcache.get_hit_allocs", func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := cache.Get(q9, cur); !ok {
				perr = fmt.Errorf("qcache probe: expected a hit")
			}
		}
	})
	ns("qcache.put_ns", func(n int) {
		for i := 0; i < n; i++ {
			cache.Put(q9, fp, res, -1)
		}
	})
	// A Get that finds its entry stale drops it, so each one needs a
	// fresh entry: fill under distinct keys (untimed), move the epoch,
	// time the Gets.
	const staleKeys = 2048
	keys := make([]string, staleKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s -- %d", q9, i)
	}
	var stale []float64
	for batch := 0; batch < probeBatches; batch++ {
		for _, k := range keys {
			cache.Put(k, qcache.Footprint{Tables: fp.Tables, Epochs: []uint64{epoch, epoch}}, res, -1)
		}
		epoch++
		t0 := time.Now()
		for _, k := range keys {
			if _, ok := cache.Get(k, cur); ok {
				perr = fmt.Errorf("qcache probe: stale entry served")
			}
		}
		stale = append(stale, float64(time.Since(t0).Nanoseconds())/staleKeys)
	}
	r.set("qcache.invalidate_ns", median(stale))

	// wire: 64-row batches of lineitem-shaped rows.
	batch := wire.RowBatch{}
	for i := 0; i < wire.BatchRows; i++ {
		batch.Rows = append(batch.Rows, vals[(i*4)&1023:(i*4)&1023+4])
	}
	enc := wire.EncodeRowBatch(batch)
	perRow := func(name, allocs string, f func()) {
		v, a := timeProbe(quick, func(n int) {
			for i := 0; i < n; i++ {
				f()
			}
		})
		r.set(name, v/wire.BatchRows)
		r.set(allocs, a/wire.BatchRows)
	}
	perRow("wire.encode_row_ns", "wire.encode_row_allocs", func() { sink += uint64(len(wire.EncodeRowBatch(batch))) })
	perRow("wire.decode_row_ns", "wire.decode_row_allocs", func() {
		if _, err := wire.DecodeRowBatch(enc); err != nil {
			perr = err
		}
	})
	var fb bytes.Buffer
	ns("wire.frame_roundtrip_ns", func(n int) {
		for i := 0; i < n; i++ {
			fb.Reset()
			if err := wire.WriteFrame(&fb, wire.KindRowBatch, enc); err != nil {
				perr = err
			}
			if _, err := wire.ReadFrame(&fb); err != nil {
				perr = err
			}
		}
	})

	// obs
	tr := obs.New(obs.Config{})
	nsAllocs("obs.span_ns", "obs.span_allocs", func(n int) {
		for i := 0; i < n; i++ {
			sp := tr.Begin("Q9", q9)
			sp.Add(obs.StagePlan, time.Microsecond)
			sp.Add(obs.StageCache, time.Microsecond)
			sp.Add(obs.StageNet, time.Microsecond)
			sp.End()
		}
	})

	// wcap
	crec := wcap.Record{Offset: time.Second, Session: 1, QueryID: 7, Label: "Q9", SQL: q9, Rows: 24, Bytes: 900,
		Latency: 40 * time.Microsecond, Stages: []int64{1000, 2000, 0, 0, 0, 9000}, CacheHit: true}
	cenc, err := wcap.EncodeRecord(crec)
	if err != nil {
		return err
	}
	ns("wcap.encode_ns", func(n int) {
		for i := 0; i < n; i++ {
			p, _ := wcap.EncodeRecord(crec)
			sink += uint64(len(p))
		}
	})
	ns("wcap.decode_ns", func(n int) {
		for i := 0; i < n; i++ {
			if _, err := wcap.DecodeRecord(cenc); err != nil {
				perr = err
			}
		}
	})
	// Capture is a non-blocking send; with a full buffer it sheds, which
	// is the cheaper path, so the probe drains at the writer's own pace
	// and reports the send cost including whatever shedding that causes.
	cw, err := wcap.Open(filepath.Join(dir, "wcap"), wcap.Options{Buffer: 1 << 16})
	if err != nil {
		return err
	}
	ns("wcap.capture_ns", func(n int) {
		for i := 0; i < n; i++ {
			cw.Capture(crec)
		}
	})
	if err := cw.Close(); err != nil {
		return err
	}
	return perr
}
