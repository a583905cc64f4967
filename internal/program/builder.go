package program

import "fmt"

// Builder assembles a Program. Procedures and blocks are declared in
// the order they will appear in the original (link-order) code layout,
// which is the baseline layout the paper compares against.
//
// Block successor references may name labels that are declared later;
// they are resolved at Build time.
type Builder struct {
	procs  []*procBuilder
	byName map[string]*procBuilder
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{byName: make(map[string]*procBuilder)}
}

// Proc declares a procedure. Names must be unique.
func (b *Builder) Proc(name, module string) *ProcBuilder {
	if _, dup := b.byName[name]; dup {
		panic(fmt.Sprintf("program: duplicate procedure %q", name))
	}
	pb := &procBuilder{name: name, module: module, labels: make(map[string]int)}
	b.procs = append(b.procs, pb)
	b.byName[name] = pb
	return &ProcBuilder{pb: pb}
}

// ColdProc declares a procedure marked as cold (never expected to run).
func (b *Builder) ColdProc(name, module string) *ProcBuilder {
	p := b.Proc(name, module)
	p.pb.cold = true
	return p
}

// Build resolves all references, validates the program and returns it.
func (b *Builder) Build() (*Program, error) {
	nblocks := 0
	for _, pb := range b.procs {
		nblocks += len(pb.blocks)
	}
	if nblocks > MaxBlocks {
		return nil, fmt.Errorf("program: image has %d blocks, more than the %d a BlockID can name", nblocks, MaxBlocks)
	}
	p := &Program{
		procByName:  make(map[string]ProcID, len(b.procs)),
		blockByName: make(map[string]BlockID, nblocks),
	}
	// First pass: assign IDs.
	for _, pb := range b.procs {
		if len(pb.blocks) == 0 {
			return nil, fmt.Errorf("program: procedure %q has no blocks", pb.name)
		}
		pid := ProcID(len(p.Procs))
		pr := Proc{ID: pid, Name: pb.name, Module: pb.module, Cold: pb.cold}
		for _, bb := range pb.blocks {
			bid := BlockID(len(p.Blocks))
			name := pb.name + "." + bb.label
			if _, dup := p.blockByName[name]; dup {
				return nil, fmt.Errorf("program: duplicate block %q", name)
			}
			p.blockByName[name] = bid
			pr.Blocks = append(pr.Blocks, bid)
			p.Blocks = append(p.Blocks, Block{
				ID:     bid,
				Proc:   pid,
				Name:   name,
				Size:   bb.size,
				Kind:   bb.kind,
				Callee: NoProc,
			})
			p.totalInstr += uint64(bb.size)
		}
		pr.Entry = pr.Blocks[0]
		p.procByName[pb.name] = pid
		p.Procs = append(p.Procs, pr)
	}
	// Second pass: resolve successors and callees.
	for _, pb := range b.procs {
		pid := p.procByName[pb.name]
		pr := &p.Procs[pid]
		for j, bb := range pb.blocks {
			blk := &p.Blocks[pr.Blocks[j]]
			next := NoBlock
			if j+1 < len(pr.Blocks) {
				next = pr.Blocks[j+1]
			}
			switch bb.kind {
			case KindFallThrough:
				if next == NoBlock {
					return nil, fmt.Errorf("program: %s falls off the end of the procedure", blk.Name)
				}
				blk.Succs = []BlockID{next}
			case KindCondBranch:
				if next == NoBlock {
					return nil, fmt.Errorf("program: %s falls off the end of the procedure", blk.Name)
				}
				tgt, ok := pb.labels[bb.target]
				if !ok {
					return nil, fmt.Errorf("program: %s branches to unknown label %q", blk.Name, bb.target)
				}
				blk.Succs = []BlockID{next, pr.Blocks[tgt]}
			case KindJump:
				tgt, ok := pb.labels[bb.target]
				if !ok {
					return nil, fmt.Errorf("program: %s jumps to unknown label %q", blk.Name, bb.target)
				}
				blk.Succs = []BlockID{pr.Blocks[tgt]}
			case KindCall:
				if next == NoBlock {
					return nil, fmt.Errorf("program: call block %s needs a continuation block", blk.Name)
				}
				blk.Succs = []BlockID{next}
				if bb.target != "" {
					cp, ok := p.procByName[bb.target]
					if !ok {
						return nil, fmt.Errorf("program: %s calls unknown procedure %q", blk.Name, bb.target)
					}
					blk.Callee = cp
				}
			case KindReturn:
				// No successors.
			}
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.buildAux()
	return p, nil
}

// MustBuild is Build, panicking on error. The kernel image is built at
// init time from trusted, tested definitions.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

type blockDecl struct {
	label  string
	size   int
	kind   BlockKind
	target string // branch/jump label or callee proc name
}

type procBuilder struct {
	name   string
	module string
	cold   bool
	blocks []blockDecl
	labels map[string]int
}

// ProcBuilder declares the basic blocks of one procedure, in layout
// order. Each declaration appends one block; the terminator kind is
// chosen by the method used.
type ProcBuilder struct {
	pb *procBuilder
}

func (p *ProcBuilder) add(label string, size int, kind BlockKind, target string) *ProcBuilder {
	if label == "" {
		label = fmt.Sprintf("b%d", len(p.pb.blocks))
	}
	if _, dup := p.pb.labels[label]; dup {
		panic(fmt.Sprintf("program: duplicate label %q in %q", label, p.pb.name))
	}
	p.pb.labels[label] = len(p.pb.blocks)
	p.pb.blocks = append(p.pb.blocks, blockDecl{label: label, size: size, kind: kind, target: target})
	return p
}

// Fall appends a fall-through block.
func (p *ProcBuilder) Fall(label string, size int) *ProcBuilder {
	return p.add(label, size, KindFallThrough, "")
}

// Cond appends a conditional-branch block whose taken target is the
// block labelled target (fall-through is the next declared block).
func (p *ProcBuilder) Cond(label string, size int, target string) *ProcBuilder {
	return p.add(label, size, KindCondBranch, target)
}

// Jump appends an unconditional-branch block targeting label target.
func (p *ProcBuilder) Jump(label string, size int, target string) *ProcBuilder {
	return p.add(label, size, KindJump, target)
}

// Call appends a call block invoking procedure callee; execution
// continues at the next declared block after the callee returns.
func (p *ProcBuilder) Call(label string, size int, callee string) *ProcBuilder {
	return p.add(label, size, KindCall, callee)
}

// CallIndirect appends an indirect-call block (callee unknown
// statically, e.g. through a function pointer in the executor's
// dispatch tables).
func (p *ProcBuilder) CallIndirect(label string, size int) *ProcBuilder {
	return p.add(label, size, KindCall, "")
}

// Ret appends a return block.
func (p *ProcBuilder) Ret(label string, size int) *ProcBuilder {
	return p.add(label, size, KindReturn, "")
}
