package isa

import "fmt"

// DynInstr describes one dynamically executed instruction. The timing
// model in package sim consumes a stream of these.
type DynInstr struct {
	// Op is the operation executed.
	Op Op
	// Block is the basic block the instruction belongs to. Injected
	// instructions carry the block of the injection site.
	Block BlockID
	// Dst, A, B are the architectural registers named by the instruction.
	Dst, A, B Reg
	// MemAddr is the effective word address for Load/Store, -1 otherwise.
	MemAddr int64
	// IsBranch marks the synthetic branch instruction emitted for a
	// block's conditional terminator.
	IsBranch bool
	// Taken is the branch outcome (meaningful when IsBranch).
	Taken bool
	// Injected marks instructions inserted by an attack, not the program.
	Injected bool
}

// Consumer receives each dynamic instruction in program order. Returning
// false stops execution early (used by bounded monitoring runs).
type Consumer func(*DynInstr) bool

// ExecResult summarizes a completed architectural execution.
type ExecResult struct {
	// DynInstrs is the number of instructions executed, including the
	// synthetic branch instructions for conditional terminators.
	DynInstrs int64
	// Mem is the final data memory.
	Mem []int64
	// Regs is the final register file.
	Regs [NumRegs]int64
	// Stopped reports whether the consumer stopped execution early.
	Stopped bool
}

// ExecConfig bounds and configures a functional execution.
type ExecConfig struct {
	// MaxInstrs aborts execution with an error when exceeded; a guard
	// against accidentally non-terminating workloads. Zero means the
	// default of 1e9.
	MaxInstrs int64
	// InitMem seeds the data memory. It may be shorter than the
	// program's MemWords; remaining words are zero.
	InitMem []int64
}

const defaultMaxInstrs = 1_000_000_000

// Execute runs the program functionally, invoking consume (if non-nil) for
// every dynamic instruction, including a synthetic branch record for each
// conditional terminator. Division or remainder by zero produces zero, and
// out-of-range memory accesses wrap modulo the memory size, so workloads
// cannot crash the simulator; both behaviours are deterministic.
func Execute(p *Program, cfg ExecConfig, consume Consumer) (*ExecResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	maxInstrs := cfg.MaxInstrs
	if maxInstrs <= 0 {
		maxInstrs = defaultMaxInstrs
	}
	mem := make([]int64, p.MemWords)
	copy(mem, cfg.InitMem)
	var regs [NumRegs]int64
	res := &ExecResult{Mem: mem}

	memSize := int64(p.MemWords)

	cur := p.Entry
	var dyn DynInstr
	for {
		b := &p.Blocks[cur]
		for i := range b.Code {
			ins := &b.Code[i]
			res.DynInstrs++
			if res.DynInstrs > maxInstrs {
				return nil, fmt.Errorf("isa: program %q exceeded instruction budget %d", p.Name, maxInstrs)
			}
			addr := int64(-1)
			switch ins.Op {
			case Nop:
			case LoadImm:
				regs[ins.Dst] = ins.Imm
			case Mov:
				regs[ins.Dst] = regs[ins.A]
			case Load:
				addr = wrapAddr(regs[ins.A]+ins.Imm, memSize)
				regs[ins.Dst] = mem[addr]
			case Store:
				addr = wrapAddr(regs[ins.A]+ins.Imm, memSize)
				mem[addr] = regs[ins.B]
			default:
				a := regs[ins.A]
				var bv int64
				if ins.HasImm {
					bv = ins.Imm
				} else {
					bv = regs[ins.B]
				}
				regs[ins.Dst] = aluOp(ins.Op, a, bv)
			}
			if consume != nil {
				// Every field is stored into the one reused record:
				// building a composite literal and copying it in makes
				// the consumer's first loads wait on narrow stores.
				dyn.Op, dyn.Block = ins.Op, cur
				dyn.Dst, dyn.A, dyn.B = ins.Dst, ins.A, ins.B
				dyn.MemAddr = addr
				dyn.IsBranch, dyn.Taken, dyn.Injected = false, false, false
				if !consume(&dyn) {
					res.Stopped = true
					res.Regs = regs
					return res, nil
				}
			}
		}
		switch b.Term.Kind {
		case Halt:
			res.Regs = regs
			return res, nil
		case Jump:
			cur = b.Term.Then
		case Branch:
			res.DynInstrs++
			if res.DynInstrs > maxInstrs {
				return nil, fmt.Errorf("isa: program %q exceeded instruction budget %d", p.Name, maxInstrs)
			}
			taken := b.Term.Cond.Eval(regs[b.Term.A], regs[b.Term.B])
			if consume != nil {
				dyn.Op, dyn.Block = Sub, cur
				dyn.Dst, dyn.A, dyn.B = 0, b.Term.A, b.Term.B
				dyn.MemAddr = -1
				dyn.IsBranch, dyn.Taken, dyn.Injected = true, taken, false
				if !consume(&dyn) {
					res.Stopped = true
					res.Regs = regs
					return res, nil
				}
			}
			if taken {
				cur = b.Term.Then
			} else {
				cur = b.Term.Else
			}
		}
	}
}

// wrapAddr maps a word address into [0, size), or to 0 when there is no
// memory. In-range addresses, the common case, skip the divide.
func wrapAddr(addr, size int64) int64 {
	if 0 <= addr && addr < size {
		return addr
	}
	if size <= 0 {
		return 0
	}
	addr %= size
	if addr < 0 {
		addr += size
	}
	return addr
}

func aluOp(op Op, a, b int64) int64 {
	switch op {
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	case Div:
		if b == 0 {
			return 0
		}
		return a / b
	case Rem:
		if b == 0 {
			return 0
		}
		return a % b
	case And:
		return a & b
	case Or:
		return a | b
	case Xor:
		return a ^ b
	case Shl:
		return a << (uint64(b) & 63)
	case Shr:
		return a >> (uint64(b) & 63)
	default:
		panic(fmt.Sprintf("isa: aluOp called with non-ALU op %v", op))
	}
}
