package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildCountdown builds: r1 = n; loop { r2 += r1; r1 -= 1 } until r1 == 0.
func buildCountdown(n int64) *Program {
	b := NewBuilder("countdown", 8)
	entry := b.NewBlock("entry")
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	entry.Li(1, n).Li(2, 0).Li(0, 0)
	entry.Jump(head)
	head.Branch(GT, 1, 0, body, exit)
	body.Add(2, 2, 1).SubI(1, 1, 1)
	body.Jump(head)
	exit.Store(0, 0, 2)
	exit.Halt()
	return b.Build()
}

func TestExecuteCountdown(t *testing.T) {
	p := buildCountdown(100)
	res, err := Execute(p, ExecConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Mem[0]; got != 5050 {
		t.Errorf("sum = %d, want 5050", got)
	}
	// 3 entry + 101 branch + 100*2 body + 1 store = 305 dynamic instrs.
	if res.DynInstrs != 305 {
		t.Errorf("dynamic instructions = %d, want 305", res.DynInstrs)
	}
}

func TestExecuteConsumerSeesEveryInstruction(t *testing.T) {
	p := buildCountdown(10)
	var count int64
	var branches int
	res, err := Execute(p, ExecConfig{}, func(di *DynInstr) bool {
		count++
		if di.IsBranch {
			branches++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != res.DynInstrs {
		t.Errorf("consumer saw %d instrs, result says %d", count, res.DynInstrs)
	}
	if branches != 11 {
		t.Errorf("saw %d branches, want 11", branches)
	}
}

func TestExecuteEarlyStop(t *testing.T) {
	p := buildCountdown(1000)
	n := 0
	res, err := Execute(p, ExecConfig{}, func(di *DynInstr) bool {
		n++
		return n < 50
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Error("expected Stopped")
	}
	if n != 50 {
		t.Errorf("consumer called %d times, want 50", n)
	}
}

func TestExecuteInstructionBudget(t *testing.T) {
	b := NewBuilder("spin", 0)
	blk := b.NewBlock("spin")
	blk.Nop()
	blk.Jump(blk)
	p := b.Build()
	if _, err := Execute(p, ExecConfig{MaxInstrs: 1000}, nil); err == nil {
		t.Error("non-terminating program should exceed its budget")
	} else if !strings.Contains(err.Error(), "budget") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestALUOperations(t *testing.T) {
	cases := []struct {
		op      Op
		a, b, w int64
	}{
		{Add, 3, 4, 7},
		{Sub, 3, 4, -1},
		{Mul, -3, 4, -12},
		{Div, 7, 2, 3},
		{Div, 7, 0, 0},
		{Div, -7, 2, -3},
		{Rem, 7, 3, 1},
		{Rem, 7, 0, 0},
		{And, 0b1100, 0b1010, 0b1000},
		{Or, 0b1100, 0b1010, 0b1110},
		{Xor, 0b1100, 0b1010, 0b0110},
		{Shl, 1, 4, 16},
		{Shl, 1, 64, 1}, // shift amount masked to 6 bits
		{Shr, -8, 1, -4},
		{Shr, 16, 2, 4},
	}
	for _, c := range cases {
		if got := aluOp(c.op, c.a, c.b); got != c.w {
			t.Errorf("%v(%d,%d) = %d, want %d", c.op, c.a, c.b, got, c.w)
		}
	}
}

func TestCondEval(t *testing.T) {
	cases := []struct {
		c    Cond
		a, b int64
		want bool
	}{
		{EQ, 1, 1, true}, {EQ, 1, 2, false},
		{NE, 1, 2, true}, {NE, 2, 2, false},
		{LT, 1, 2, true}, {LT, 2, 2, false},
		{LE, 2, 2, true}, {LE, 3, 2, false},
		{GT, 3, 2, true}, {GT, 2, 2, false},
		{GE, 2, 2, true}, {GE, 1, 2, false},
	}
	for _, c := range cases {
		if got := c.c.Eval(c.a, c.b); got != c.want {
			t.Errorf("%v(%d,%d) = %t", c.c, c.a, c.b, got)
		}
	}
}

func TestMemoryWrapsModuloSize(t *testing.T) {
	b := NewBuilder("wrap", 4)
	blk := b.NewBlock("main")
	blk.Li(1, 7).Li(2, 42).Store(1, 0, 2). // Mem[7 mod 4 = 3] = 42
						Li(3, -1).Load(4, 3, 0). // Mem[-1 mod 4 = 3] -> r4
						Store(0, 1, 4)           // Mem[1] = r4
	blk.Halt()
	p := b.Build()
	res, err := Execute(p, ExecConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem[3] != 42 || res.Mem[1] != 42 {
		t.Errorf("mem = %v, want wrap-around stores to land at index 3", res.Mem)
	}
}

func TestWrapAddr(t *testing.T) {
	// modWrap is the definition wrapAddr must match: the non-negative
	// remainder of addr by size, or 0 when there is no memory.
	modWrap := func(addr, size int64) int64 {
		if size <= 0 {
			return 0
		}
		r := addr % size
		if r < 0 {
			r += size
		}
		return r
	}
	const big = int64(1) << 62
	for _, c := range []struct {
		name       string
		addr, size int64
		want       int64
	}{
		{"zero", 0, 8, 0},
		{"in range", 5, 8, 5},
		{"last word", 7, 8, 7},
		{"exactly size", 8, 8, 0},
		{"past size", 19, 8, 3},
		{"far past size", big + 3, 8, 3},
		{"minus one", -1, 8, 7},
		{"minus size", -8, 8, 0},
		{"far negative", -big - 5, 8, 3},
		{"most negative", -1 << 63, 8, 0},
		{"largest", 1<<63 - 1, 8, 7},
		{"size one", 12345, 1, 0},
		{"size zero", 5, 0, 0},
		{"size zero negative addr", -5, 0, 0},
		{"size negative", 3, -4, 0},
		{"size negative, addr below", -7, -4, 0},
	} {
		if got := wrapAddr(c.addr, c.size); got != c.want {
			t.Errorf("%s: wrapAddr(%d, %d) = %d, want %d", c.name, c.addr, c.size, got, c.want)
		}
		if got, def := wrapAddr(c.addr, c.size), modWrap(c.addr, c.size); got != def {
			t.Errorf("%s: wrapAddr(%d, %d) = %d, modulo definition %d", c.name, c.addr, c.size, got, def)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		addr := rng.Int63n(1<<20) - 1<<19
		size := rng.Int63n(1<<10) - 4
		if got, def := wrapAddr(addr, size), modWrap(addr, size); got != def {
			t.Fatalf("wrapAddr(%d, %d) = %d, modulo definition %d", addr, size, got, def)
		}
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	// Jump target out of range.
	p := &Program{
		Name:   "bad",
		Blocks: []Block{{ID: 0, Term: Terminator{Kind: Jump, Then: 5}}},
		Entry:  0,
	}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range jump target should fail validation")
	}
	// Entry out of range.
	p = &Program{Name: "bad2", Blocks: []Block{{ID: 0, Term: Terminator{Kind: Halt}}}, Entry: 3}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range entry should fail validation")
	}
	// Register out of range.
	p = &Program{
		Name: "bad3",
		Blocks: []Block{{
			ID:   0,
			Code: []Instr{{Op: Add, Dst: 200}},
			Term: Terminator{Kind: Halt},
		}},
		Entry: 0,
	}
	if err := p.Validate(); err == nil {
		t.Error("register out of range should fail validation")
	}
}

func TestBuilderPanicsOnMisuse(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("unterminated block", func() {
		b := NewBuilder("x", 0)
		b.NewBlock("a")
		b.Build()
	})
	expectPanic("double terminate", func() {
		b := NewBuilder("x", 0)
		blk := b.NewBlock("a")
		blk.Halt()
		blk.Halt()
	})
	expectPanic("emit after terminate", func() {
		b := NewBuilder("x", 0)
		blk := b.NewBlock("a")
		blk.Halt()
		blk.Nop()
	})
	expectPanic("double build", func() {
		b := NewBuilder("x", 0)
		blk := b.NewBlock("a")
		blk.Halt()
		b.Build()
		b.Build()
	})
}

// TestExecuteDeterministicProperty: the same program and input always give
// the same result.
func TestExecuteDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := int64(1 + r.Intn(500))
		p := buildCountdown(n)
		a, err1 := Execute(p, ExecConfig{}, nil)
		b, err2 := Execute(p, ExecConfig{}, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		return a.Mem[0] == b.Mem[0] && a.DynInstrs == b.DynInstrs &&
			a.Mem[0] == n*(n+1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSuccessors(t *testing.T) {
	b := NewBuilder("s", 0)
	a := b.NewBlock("a")
	c := b.NewBlock("c")
	d := b.NewBlock("d")
	a.Branch(EQ, 0, 0, c, d)
	c.Jump(d)
	d.Halt()
	p := b.Build()
	if s := p.Blocks[0].Successors(); len(s) != 2 {
		t.Errorf("branch successors = %v", s)
	}
	if s := p.Blocks[1].Successors(); len(s) != 1 || s[0] != 2 {
		t.Errorf("jump successors = %v", s)
	}
	if s := p.Blocks[2].Successors(); s != nil {
		t.Errorf("halt successors = %v", s)
	}
	// A branch with equal arms reports one successor.
	b2 := NewBuilder("s2", 0)
	x := b2.NewBlock("x")
	y := b2.NewBlock("y")
	x.Branch(EQ, 0, 0, y, y)
	y.Halt()
	p2 := b2.Build()
	if s := p2.Blocks[0].Successors(); len(s) != 1 {
		t.Errorf("equal-arm branch successors = %v", s)
	}
}

func TestOpString(t *testing.T) {
	if Add.String() != "add" || Load.String() != "load" {
		t.Error("op mnemonics wrong")
	}
	if !Load.IsMem() || !Store.IsMem() || Add.IsMem() {
		t.Error("IsMem wrong")
	}
}

func TestDisassemble(t *testing.T) {
	p := buildCountdown(5)
	out := p.Disassemble()
	for _, want := range []string{
		"program \"countdown\"", ".B0:", "li    r1, 5", "b.gt  r1, r0, .B2, .B3",
		"add   r2, r2, r1", "sub   r1, r1, 1", "store [r0+0], r2", "halt",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
	if n := p.StaticInstrCount(); n != 3+1+2+1 {
		t.Errorf("static instruction count %d, want 7", n)
	}
}

func TestInstrStringForms(t *testing.T) {
	cases := map[string]Instr{
		"nop":               {Op: Nop},
		"li    r3, -7":      {Op: LoadImm, Dst: 3, Imm: -7, HasImm: true},
		"mov   r1, r2":      {Op: Mov, Dst: 1, A: 2},
		"load  r4, [r5+16]": {Op: Load, Dst: 4, A: 5, Imm: 16},
		"store [r6-1], r7":  {Op: Store, A: 6, Imm: -1, B: 7},
		"xor   r1, r2, r3":  {Op: Xor, Dst: 1, A: 2, B: 3},
		"shl   r1, r2, 4":   {Op: Shl, Dst: 1, A: 2, Imm: 4, HasImm: true},
	}
	for want, ins := range cases {
		if got := ins.String(); got != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
}
