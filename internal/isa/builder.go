package isa

import "fmt"

// Builder assembles a Program block by block. It is the API the workload
// generators in package mibench use; it panics on structural misuse
// (wrong register, unterminated block) because those are programming
// errors in the workload definition, not runtime conditions.
type Builder struct {
	prog       Program
	terminated []bool
	built      bool
}

// NewBuilder starts a program with the given name and data memory size.
func NewBuilder(name string, memWords int) *Builder {
	if memWords < 0 {
		panic(fmt.Sprintf("isa: negative memory size %d", memWords))
	}
	return &Builder{prog: Program{Name: name, MemWords: memWords, Entry: NoBlock}}
}

// BlockBuilder appends instructions to one basic block.
type BlockBuilder struct {
	b          *Builder
	id         BlockID
	terminated bool
}

// NewBlock creates an empty block with a label and returns its builder.
// The first block created becomes the program entry.
func (b *Builder) NewBlock(label string) *BlockBuilder {
	id := BlockID(len(b.prog.Blocks))
	b.prog.Blocks = append(b.prog.Blocks, Block{ID: id, Label: label})
	b.terminated = append(b.terminated, false)
	if b.prog.Entry == NoBlock {
		b.prog.Entry = id
	}
	return &BlockBuilder{b: b, id: id}
}

// Build finalizes and validates the program. It panics if any block lacks
// a terminator or validation fails; a workload with such defects must not
// ship.
func (b *Builder) Build() *Program {
	if b.built {
		panic("isa: Build called twice")
	}
	b.built = true
	for i, done := range b.terminated {
		if !done {
			panic(fmt.Sprintf("isa: block %d (%s) has no terminator", i, b.prog.Blocks[i].Label))
		}
	}
	p := b.prog
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &p
}

// ID returns the block's identifier.
func (bb *BlockBuilder) ID() BlockID { return bb.id }

func (bb *BlockBuilder) block() *Block { return &bb.b.prog.Blocks[bb.id] }

func (bb *BlockBuilder) emit(i Instr) *BlockBuilder {
	if bb.terminated {
		panic(fmt.Sprintf("isa: emit into terminated block %d (%s)", bb.id, bb.block().Label))
	}
	bb.block().Code = append(bb.block().Code, i)
	return bb
}

// Li loads an immediate: dst = imm.
func (bb *BlockBuilder) Li(dst Reg, imm int64) *BlockBuilder {
	return bb.emit(Instr{Op: LoadImm, Dst: dst, Imm: imm, HasImm: true})
}

// Mov copies a register: dst = a.
func (bb *BlockBuilder) Mov(dst, a Reg) *BlockBuilder {
	return bb.emit(Instr{Op: Mov, Dst: dst, A: a})
}

// Op3 emits a three-register ALU op: dst = a op c.
func (bb *BlockBuilder) Op3(op Op, dst, a, c Reg) *BlockBuilder {
	return bb.emit(Instr{Op: op, Dst: dst, A: a, B: c})
}

// OpI emits a register-immediate ALU op: dst = a op imm.
func (bb *BlockBuilder) OpI(op Op, dst, a Reg, imm int64) *BlockBuilder {
	return bb.emit(Instr{Op: op, Dst: dst, A: a, Imm: imm, HasImm: true})
}

// Add emits dst = a + c.
func (bb *BlockBuilder) Add(dst, a, c Reg) *BlockBuilder { return bb.Op3(Add, dst, a, c) }

// AddI emits dst = a + imm.
func (bb *BlockBuilder) AddI(dst, a Reg, imm int64) *BlockBuilder { return bb.OpI(Add, dst, a, imm) }

// Sub emits dst = a - c.
func (bb *BlockBuilder) Sub(dst, a, c Reg) *BlockBuilder { return bb.Op3(Sub, dst, a, c) }

// SubI emits dst = a - imm.
func (bb *BlockBuilder) SubI(dst, a Reg, imm int64) *BlockBuilder { return bb.OpI(Sub, dst, a, imm) }

// Mul emits dst = a * c.
func (bb *BlockBuilder) Mul(dst, a, c Reg) *BlockBuilder { return bb.Op3(Mul, dst, a, c) }

// MulI emits dst = a * imm.
func (bb *BlockBuilder) MulI(dst, a Reg, imm int64) *BlockBuilder { return bb.OpI(Mul, dst, a, imm) }

// Div emits dst = a / c (signed; division by zero yields 0).
func (bb *BlockBuilder) Div(dst, a, c Reg) *BlockBuilder { return bb.Op3(Div, dst, a, c) }

// Rem emits dst = a % c (signed; modulo by zero yields 0).
func (bb *BlockBuilder) Rem(dst, a, c Reg) *BlockBuilder { return bb.Op3(Rem, dst, a, c) }

// RemI emits dst = a % imm.
func (bb *BlockBuilder) RemI(dst, a Reg, imm int64) *BlockBuilder { return bb.OpI(Rem, dst, a, imm) }

// And emits dst = a & c.
func (bb *BlockBuilder) And(dst, a, c Reg) *BlockBuilder { return bb.Op3(And, dst, a, c) }

// AndI emits dst = a & imm.
func (bb *BlockBuilder) AndI(dst, a Reg, imm int64) *BlockBuilder { return bb.OpI(And, dst, a, imm) }

// Or emits dst = a | c.
func (bb *BlockBuilder) Or(dst, a, c Reg) *BlockBuilder { return bb.Op3(Or, dst, a, c) }

// Xor emits dst = a ^ c.
func (bb *BlockBuilder) Xor(dst, a, c Reg) *BlockBuilder { return bb.Op3(Xor, dst, a, c) }

// XorI emits dst = a ^ imm.
func (bb *BlockBuilder) XorI(dst, a Reg, imm int64) *BlockBuilder { return bb.OpI(Xor, dst, a, imm) }

// ShlI emits dst = a << imm.
func (bb *BlockBuilder) ShlI(dst, a Reg, imm int64) *BlockBuilder { return bb.OpI(Shl, dst, a, imm) }

// ShrI emits dst = a >> imm (arithmetic).
func (bb *BlockBuilder) ShrI(dst, a Reg, imm int64) *BlockBuilder { return bb.OpI(Shr, dst, a, imm) }

// Shl emits dst = a << c.
func (bb *BlockBuilder) Shl(dst, a, c Reg) *BlockBuilder { return bb.Op3(Shl, dst, a, c) }

// Shr emits dst = a >> c (arithmetic).
func (bb *BlockBuilder) Shr(dst, a, c Reg) *BlockBuilder { return bb.Op3(Shr, dst, a, c) }

// Load emits dst = Mem[base + off].
func (bb *BlockBuilder) Load(dst, base Reg, off int64) *BlockBuilder {
	return bb.emit(Instr{Op: Load, Dst: dst, A: base, Imm: off})
}

// Store emits Mem[base + off] = val.
func (bb *BlockBuilder) Store(base Reg, off int64, val Reg) *BlockBuilder {
	return bb.emit(Instr{Op: Store, A: base, Imm: off, B: val})
}

// Nop emits a no-op.
func (bb *BlockBuilder) Nop() *BlockBuilder { return bb.emit(Instr{Op: Nop}) }

func (bb *BlockBuilder) terminate(t Terminator) {
	if bb.terminated {
		panic(fmt.Sprintf("isa: block %d (%s) terminated twice", bb.id, bb.block().Label))
	}
	bb.terminated = true
	bb.b.terminated[bb.id] = true
	bb.block().Term = t
}

// Jump terminates the block with an unconditional jump.
func (bb *BlockBuilder) Jump(to *BlockBuilder) {
	bb.terminate(Terminator{Kind: Jump, Then: to.id})
}

// Branch terminates the block with a conditional branch: if cond(a,b) goto
// then else goto els.
func (bb *BlockBuilder) Branch(cond Cond, a, b Reg, then, els *BlockBuilder) {
	bb.terminate(Terminator{Kind: Branch, Cond: cond, A: a, B: b, Then: then.id, Else: els.id})
}

// Halt terminates the block and the program.
func (bb *BlockBuilder) Halt() {
	bb.terminate(Terminator{Kind: Halt})
}
