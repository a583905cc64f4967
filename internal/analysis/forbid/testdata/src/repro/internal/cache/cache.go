// Package cache brings back the generic chunk join: an ICache that
// clones, copies and compares itself, a Partial interface, and
// set-associative and victim caches that implement them all.
package cache

type ICache interface {
	Access(addr uint64) bool
	Reset()
	LineBytes() int
	Clone() ICache           // want "repro/internal/cache.ICache.Clone is forbidden here"
	Copy() ICache            // want "repro/internal/cache.ICache.Copy is forbidden here"
	Equal(other ICache) bool // want "repro/internal/cache.ICache.Equal is forbidden here"
}

type Partial interface { // want "repro/internal/cache.Partial is forbidden here: fetch splits a walk only over an ideal or direct-mapped i-cache"
	Covers(o ICache) bool
}

type SetAssoc struct{ ways int }

func (c *SetAssoc) Clone() ICache        { return nil }   // want "repro/internal/cache.SetAssoc.Clone is forbidden here"
func (c *SetAssoc) Copy() ICache         { return nil }   // want "repro/internal/cache.SetAssoc.Copy is forbidden here"
func (c *SetAssoc) Equal(o ICache) bool  { return false } // want "repro/internal/cache.SetAssoc.Equal is forbidden here"
func (c *Victim) Clone() ICache          { return nil }   // want "repro/internal/cache.Victim.Clone is forbidden here"
func (c *Victim) Copy() ICache           { return nil }   // want "repro/internal/cache.Victim.Copy is forbidden here"
func (c *Victim) Equal(o ICache) bool    { return false } // want "repro/internal/cache.Victim.Equal is forbidden here"
func (c *DirectMapped) Equal(o any) bool { return false } // want "repro/internal/cache.DirectMapped.Equal is forbidden here"

type Victim struct{ main *DirectMapped }

func sameLRU(a, b []uint64) bool { return rank(a) == rank(b) } // want "sameLRU is forbidden here: no production code compares LRU states"

func rank(a []uint64) int { return len(a) } // want "rank is forbidden here"

// DirectMapped keeps what the chunk join calls.
type DirectMapped struct{ valid []bool }

func (c *DirectMapped) Clone() *DirectMapped             { return &DirectMapped{} }
func (c *DirectMapped) Copy() *DirectMapped              { return c }
func (c *DirectMapped) Covers(o *DirectMapped) bool      { return true }
func (c *DirectMapped) FirstHits(b, o *DirectMapped) int { return 0 }
func (c *DirectMapped) Underlay(o *DirectMapped)         {}

type TraceCache struct{ lines []uint64 }

func (tc *TraceCache) Clone() *TraceCache { return tc }
func (tc *TraceCache) Copy() *TraceCache  { return tc }
func (tc *TraceCache) MaxInstrs() int     { return 16 } // want "repro/internal/cache.TraceCache.MaxInstrs is forbidden here: the fetch unit is SEQ.3"
func (tc *TraceCache) MaxBranches() int   { return 3 }  // want "repro/internal/cache.TraceCache.MaxBranches is forbidden here"
