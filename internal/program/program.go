// Package program models a compiled program image at basic-block
// granularity: procedures, basic blocks with instruction sizes and
// terminator kinds, static control-flow successors, and code layouts
// (assignments of basic blocks to instruction addresses).
//
// The model mirrors what the paper obtains by instrumenting an Alpha
// binary of PostgreSQL: a static control-flow graph over which dynamic
// traces are recorded, profiles aggregated, and code layouts computed.
// Instructions are fixed-size (4 bytes), as on the Alpha.
package program

import "fmt"

// InstrBytes is the size of one instruction in bytes (Alpha-style RISC).
const InstrBytes = 4

// ProcID identifies a procedure within a Program. IDs are dense,
// starting at 0, in declaration order.
type ProcID int32

// BlockID identifies a basic block within a Program. IDs are dense,
// starting at 0, in declaration order (procedure by procedure).
//
// A BlockID is 2 bytes, because it is the element of every dynamic
// trace (package trace), and a trace is tens of millions of events
// long. So an image holds at most MaxBlocks blocks, and Builder.Build
// refuses a larger one rather than wrap. An image derived from real
// control flow instead of the hand-written kernel (ROADMAP 2(d)) must
// stay within that limit, or widen the type on purpose.
type BlockID uint16

// NoProc is the ProcID used when a callee is statically unknown
// (indirect calls).
const NoProc ProcID = -1

// NoBlock is an invalid BlockID sentinel, the largest BlockID.
const NoBlock BlockID = 1<<16 - 1

// MaxBlocks is the most blocks a Program may have: every BlockID below
// NoBlock.
const MaxBlocks = int(NoBlock)

// BlockKind classifies a basic block by its terminator, following the
// paper's taxonomy in Section 4.2.
type BlockKind uint8

const (
	// KindFallThrough blocks do not end in a branch; execution always
	// continues at the next block of the same procedure.
	KindFallThrough BlockKind = iota
	// KindCondBranch blocks end in a conditional branch. Successor 0 is
	// the fall-through block, successor 1 the taken target.
	KindCondBranch
	// KindJump blocks end in an unconditional branch. They have exactly
	// one successor, the target.
	KindJump
	// KindCall blocks end in a subroutine call. Successor 0 is the
	// continuation block (where the callee returns to); Callee names the
	// static callee, or NoProc for an indirect call.
	KindCall
	// KindReturn blocks end in a subroutine return. They have no static
	// successors; the dynamic successor is the caller's continuation.
	KindReturn
)

// String returns the lower-case name of the kind.
func (k BlockKind) String() string {
	switch k {
	case KindFallThrough:
		return "fallthrough"
	case KindCondBranch:
		return "condbranch"
	case KindJump:
		return "jump"
	case KindCall:
		return "call"
	case KindReturn:
		return "return"
	}
	return fmt.Sprintf("BlockKind(%d)", uint8(k))
}

// IsBranch reports whether the terminator is a conditional or
// unconditional branch (the paper's "Branch" class).
func (k BlockKind) IsBranch() bool { return k == KindCondBranch || k == KindJump }

// Block is one basic block of the program image.
type Block struct {
	ID    BlockID
	Proc  ProcID
	Name  string // "proc.label", unique within the program
	Size  int    // number of instructions, including the terminator
	Kind  BlockKind
	Succs []BlockID // static successors; layout depends on Kind
	// Callee is the static callee for KindCall blocks, or NoProc for
	// indirect calls. Unused for other kinds.
	Callee ProcID
}

// SizeBytes returns the block size in bytes.
func (b *Block) SizeBytes() uint64 { return uint64(b.Size) * InstrBytes }

// FallSucc returns the fall-through successor for fall-through,
// conditional-branch and call blocks, or NoBlock if none exists.
func (b *Block) FallSucc() BlockID {
	switch b.Kind {
	case KindFallThrough, KindCondBranch, KindCall:
		if len(b.Succs) > 0 {
			return b.Succs[0]
		}
	}
	return NoBlock
}

// TakenSucc returns the taken target of a conditional branch, or the
// target of an unconditional jump, or NoBlock otherwise.
func (b *Block) TakenSucc() BlockID {
	switch b.Kind {
	case KindCondBranch:
		if len(b.Succs) > 1 {
			return b.Succs[1]
		}
	case KindJump:
		if len(b.Succs) > 0 {
			return b.Succs[0]
		}
	}
	return NoBlock
}

// Proc is one procedure (function) of the program image.
type Proc struct {
	ID     ProcID
	Name   string // unique within the program
	Module string // link-time module (source grouping); informational
	Blocks []BlockID
	// Entry is the first block; always equal to Blocks[0].
	Entry BlockID
	// Cold marks procedures generated to model never-executed library,
	// parser and error-handling code in the binary image.
	Cold bool
}

// Program is an immutable program image: the full static CFG.
type Program struct {
	Procs  []Proc
	Blocks []Block

	procByName  map[string]ProcID
	blockByName map[string]BlockID

	// isContinuation[b] is true when b is the fall-through continuation
	// of some call block; used to validate dynamic return edges.
	isContinuation []bool

	totalInstr uint64
}

// NumProcs returns the number of procedures.
func (p *Program) NumProcs() int { return len(p.Procs) }

// NumBlocks returns the number of basic blocks.
func (p *Program) NumBlocks() int { return len(p.Blocks) }

// NumInstructions returns the total static instruction count.
func (p *Program) NumInstructions() uint64 { return p.totalInstr }

// Proc returns the procedure with the given ID.
func (p *Program) Proc(id ProcID) *Proc { return &p.Procs[id] }

// Block returns the block with the given ID.
func (p *Program) Block(id BlockID) *Block { return &p.Blocks[id] }

// ProcByName returns the procedure named name.
func (p *Program) ProcByName(name string) (*Proc, bool) {
	id, ok := p.procByName[name]
	if !ok {
		return nil, false
	}
	return &p.Procs[id], true
}

// MustProc returns the ProcID for name, panicking if absent. Intended
// for wiring up statically-known kernel procedures at init time.
func (p *Program) MustProc(name string) ProcID {
	id, ok := p.procByName[name]
	if !ok {
		panic("program: no procedure named " + name)
	}
	return id
}

// BlockByName returns the block named "proc.label".
func (p *Program) BlockByName(name string) (*Block, bool) {
	id, ok := p.blockByName[name]
	if !ok {
		return nil, false
	}
	return &p.Blocks[id], true
}

// MustBlock returns the BlockID for "proc.label", panicking if absent.
func (p *Program) MustBlock(name string) BlockID {
	id, ok := p.blockByName[name]
	if !ok {
		panic("program: no block named " + name)
	}
	return id
}

// EntryOf returns the entry block of the named procedure.
func (p *Program) EntryOf(name string) BlockID {
	return p.Procs[p.MustProc(name)].Entry
}

// ValidEdge reports whether control can legally transfer from block
// "from" directly to block "to" in one step: a static CFG successor, a
// call into the callee's entry, or a return to any continuation block.
// Returns from a procedure may go to any call continuation whose call
// block could (for indirect calls) or does (for direct calls) target
// the returning procedure; for simplicity and because the tracer
// validates call/return pairing with a stack, ValidEdge accepts any
// call-continuation as the target of a return.
func (p *Program) ValidEdge(from, to BlockID) bool {
	fb := &p.Blocks[from]
	switch fb.Kind {
	case KindFallThrough:
		return len(fb.Succs) == 1 && fb.Succs[0] == to
	case KindCondBranch, KindJump:
		for _, s := range fb.Succs {
			if s == to {
				return true
			}
		}
		return false
	case KindCall:
		tb := &p.Blocks[to]
		if fb.Callee != NoProc {
			return p.Procs[fb.Callee].Entry == to
		}
		// Indirect call: any procedure entry is legal.
		return p.Procs[tb.Proc].Entry == to
	case KindReturn:
		// Legal if 'to' is the continuation of some call block.
		return p.isContinuation[to]
	}
	return false
}

// Validate checks structural invariants of the program image. It is
// run by Builder.Build and exposed for tests.
func (p *Program) Validate() error {
	for i := range p.Procs {
		pr := &p.Procs[i]
		if len(pr.Blocks) == 0 {
			return fmt.Errorf("proc %q has no blocks", pr.Name)
		}
		if pr.Entry != pr.Blocks[0] {
			return fmt.Errorf("proc %q entry %d is not its first block", pr.Name, pr.Entry)
		}
		for j, bid := range pr.Blocks {
			b := &p.Blocks[bid]
			if b.Proc != pr.ID {
				return fmt.Errorf("block %q recorded under wrong proc", b.Name)
			}
			if b.Size <= 0 {
				return fmt.Errorf("block %q has non-positive size %d", b.Name, b.Size)
			}
			next := NoBlock
			if j+1 < len(pr.Blocks) {
				next = pr.Blocks[j+1]
			}
			switch b.Kind {
			case KindFallThrough:
				if len(b.Succs) != 1 || b.Succs[0] != next {
					return fmt.Errorf("fall-through block %q must precede its successor", b.Name)
				}
			case KindCondBranch:
				if len(b.Succs) != 2 {
					return fmt.Errorf("cond block %q needs 2 successors, has %d", b.Name, len(b.Succs))
				}
				if b.Succs[0] != next {
					return fmt.Errorf("cond block %q fall-through is not the next block", b.Name)
				}
				if p.Blocks[b.Succs[1]].Proc != pr.ID {
					return fmt.Errorf("cond block %q branches outside its procedure", b.Name)
				}
			case KindJump:
				if len(b.Succs) != 1 {
					return fmt.Errorf("jump block %q needs 1 successor", b.Name)
				}
				if p.Blocks[b.Succs[0]].Proc != pr.ID {
					return fmt.Errorf("jump block %q jumps outside its procedure", b.Name)
				}
			case KindCall:
				if len(b.Succs) != 1 || b.Succs[0] != next {
					return fmt.Errorf("call block %q must fall through to its continuation", b.Name)
				}
				if b.Callee != NoProc && (int(b.Callee) < 0 || int(b.Callee) >= len(p.Procs)) {
					return fmt.Errorf("call block %q has invalid callee", b.Name)
				}
			case KindReturn:
				if len(b.Succs) != 0 {
					return fmt.Errorf("return block %q must have no static successors", b.Name)
				}
			default:
				return fmt.Errorf("block %q has unknown kind", b.Name)
			}
		}
	}
	return nil
}

// buildAux precomputes derived lookup structures; called by the Builder.
func (p *Program) buildAux() {
	p.isContinuation = make([]bool, len(p.Blocks))
	for i := range p.Blocks {
		b := &p.Blocks[i]
		if b.Kind == KindCall && len(b.Succs) == 1 {
			p.isContinuation[b.Succs[0]] = true
		}
	}
}
