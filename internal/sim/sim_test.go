package sim

import (
	"testing"
	"testing/quick"

	"eddie/internal/cfg"
	"eddie/internal/inject"
	"eddie/internal/isa"
	"eddie/internal/mibench"
)

func TestCacheHitMissSequence(t *testing.T) {
	c := newCache(CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 2, HitLatency: 1})
	// 1024/64/2 = 8 sets.
	if c.sets != 8 {
		t.Fatalf("sets = %d, want 8", c.sets)
	}
	if c.access(0) {
		t.Error("cold access should miss")
	}
	if !c.access(0) {
		t.Error("second access should hit")
	}
	if !c.access(63) {
		t.Error("same line should hit")
	}
	if c.access(64) {
		t.Error("next line should miss")
	}
	// Set 0 now holds tag 0. Bring in two more tags that map to set 0:
	// the second fill evicts the LRU entry, which is tag 0.
	c.access(0)          // tag 0 most recent so far
	c.access(8 * 64)     // set 0, second way (tag 8); now tag 0 is LRU
	c.access(2 * 8 * 64) // set 0, evicts tag 0
	if !c.access(8 * 64) {
		t.Error("recently used line must survive the eviction")
	}
	if c.access(0) {
		t.Error("LRU line should have been evicted")
	}
}

func TestCacheLRUInvariantProperty(t *testing.T) {
	// Property: the most recently accessed line always hits immediately
	// afterwards, regardless of the access history.
	f := func(addrs []uint16) bool {
		c := newCache(CacheConfig{SizeBytes: 512, LineBytes: 32, Ways: 2, HitLatency: 1})
		for _, a := range addrs {
			c.access(uint64(a))
			if !c.access(uint64(a)) {
				return false
			}
		}
		return c.Accesses == int64(2*len(addrs)) && c.Misses <= int64(len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	cfgv := DefaultIoT()
	h := newHierarchy(cfgv)
	lat1, lvl1 := h.access(1000)
	if lvl1 != hitMem {
		t.Errorf("cold access served by %v, want DRAM", lvl1)
	}
	wantCold := cfgv.L1.HitLatency + cfgv.L2.HitLatency + cfgv.MemLatency
	if lat1 != wantCold {
		t.Errorf("cold latency = %d, want %d", lat1, wantCold)
	}
	lat2, lvl2 := h.access(1000)
	if lvl2 != hitL1 || lat2 != cfgv.L1.HitLatency {
		t.Errorf("warm access: latency %d level %v", lat2, lvl2)
	}
}

func TestBimodalPredictorLearnsBias(t *testing.T) {
	p := newBimodal(64)
	// A branch that is always taken should quickly stop mispredicting.
	miss := 0
	for i := 0; i < 100; i++ {
		if !p.predictAndUpdate(42, true) {
			miss++
		}
	}
	if miss > 3 {
		t.Errorf("%d mispredictions on an always-taken branch", miss)
	}
	// Alternating branch on a fresh key: bimodal should mispredict a lot.
	p2 := newBimodal(64)
	miss = 0
	for i := 0; i < 100; i++ {
		if !p2.predictAndUpdate(7, i%2 == 0) {
			miss++
		}
	}
	if miss < 30 {
		t.Errorf("alternating branch mispredicted only %d/100 times", miss)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultIoT()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := DefaultOOO().Validate(); err != nil {
		t.Fatalf("default OOO config invalid: %v", err)
	}
	bad := good
	bad.IssueWidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero issue width accepted")
	}
	bad = good
	bad.L1.LineBytes = 48 // not a power of two
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two line size accepted")
	}
	bad = DefaultOOO()
	bad.ROBSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("OOO with no ROB accepted")
	}
	bad = good
	bad.SamplePeriod = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero sample period accepted")
	}
}

// buildLoopProgram makes a two-nest program for engine tests.
func buildLoopProgram() *isa.Program {
	b := isa.NewBuilder("engine_test", 64)
	entry := b.NewBlock("entry")
	h1 := b.NewBlock("h1")
	b1 := b.NewBlock("b1")
	mid := b.NewBlock("mid")
	h2 := b.NewBlock("h2")
	b2 := b.NewBlock("b2")
	exit := b.NewBlock("exit")
	entry.Li(1, 2000).Li(0, 0).Li(3, 0)
	entry.Jump(h1)
	h1.Branch(isa.GT, 1, 0, b1, mid)
	b1.AndI(4, 1, 31).Load(5, 4, 0).Add(3, 3, 5).SubI(1, 1, 1)
	b1.Jump(h1)
	mid.Li(1, 1000).Nop().Nop()
	mid.Jump(h2)
	h2.Branch(isa.GT, 1, 0, b2, exit)
	b2.Mul(5, 1, 1).Store(5, 32, 5).SubI(1, 1, 1)
	b2.Jump(h2)
	exit.Halt()
	return b.Build()
}

func TestEngineProducesPowerAndSegments(t *testing.T) {
	p := buildLoopProgram()
	machine, err := cfg.BuildMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, machine, DefaultIoT(), isa.ExecConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Power) == 0 {
		t.Fatal("no power samples")
	}
	for i, pw := range res.Power {
		if pw <= 0 {
			t.Fatalf("power sample %d is %g; leakage should keep it positive", i, pw)
		}
	}
	if res.Stats.Cycles <= 0 || res.Stats.DynInstrs <= 0 {
		t.Fatalf("bad stats: %+v", res.Stats)
	}
	// Power length matches the cycle count.
	wantSamples := int(res.Stats.Cycles/int64(DefaultIoT().SamplePeriod)) + 1
	if len(res.Power) != wantSamples && len(res.Power) != wantSamples-1 {
		t.Errorf("power samples = %d, want ~%d", len(res.Power), wantSamples)
	}
	// Segments: ordered, non-overlapping, both loop regions present.
	var prevEnd int64
	seen := map[cfg.RegionID]bool{}
	for _, s := range res.Segments {
		if s.StartCycle < prevEnd {
			t.Fatalf("segments overlap: %+v", res.Segments)
		}
		if s.EndCycle <= s.StartCycle {
			t.Fatalf("empty segment: %+v", s)
		}
		prevEnd = s.EndCycle
		seen[s.Region] = true
	}
	if !seen[machine.LoopRegionOf(0)] || !seen[machine.LoopRegionOf(1)] {
		t.Errorf("loop regions missing from segments: %v", res.Segments)
	}
}

func TestEngineOOOFasterThanNarrowInOrder(t *testing.T) {
	p := buildLoopProgram()
	machine, err := cfg.BuildMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	narrow := DefaultIoT()
	narrow.IssueWidth = 1
	resNarrow, err := Run(p, machine, narrow, isa.ExecConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	resOoo, err := Run(p, machine, DefaultOOO(), isa.ExecConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resOoo.Stats.Cycles >= resNarrow.Stats.Cycles {
		t.Errorf("4-wide OOO (%d cycles) not faster than 1-wide in-order (%d cycles)",
			resOoo.Stats.Cycles, resNarrow.Stats.Cycles)
	}
	if ipc := resOoo.Stats.IPC(); ipc <= 0.5 || ipc > 4 {
		t.Errorf("OOO IPC = %.2f, outside plausible (0.5, 4]", ipc)
	}
}

func TestEngineDeterminism(t *testing.T) {
	p := buildLoopProgram()
	machine, err := cfg.BuildMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(p, machine, DefaultIoT(), isa.ExecConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, machine, DefaultIoT(), isa.ExecConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Errorf("stats differ across identical runs:\n%+v\n%+v", a.Stats, b.Stats)
	}
	for i := range a.Power {
		if a.Power[i] != b.Power[i] {
			t.Fatalf("power differs at sample %d", i)
		}
	}
}

func TestEngineInjectedMarks(t *testing.T) {
	p := buildLoopProgram()
	machine, err := cfg.BuildMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	// Wrap: inject 100 flagged instructions after the 500th instruction.
	wrap := func(next isa.Consumer) isa.Consumer {
		n := 0
		fired := false
		return func(di *isa.DynInstr) bool {
			n++
			if n == 500 && !fired {
				fired = true
				inj := isa.DynInstr{Op: isa.Add, Injected: true, MemAddr: -1, Block: di.Block}
				for i := 0; i < 100; i++ {
					if !next(&inj) {
						return false
					}
				}
			}
			return next(di)
		}
	}
	res, err := Run(p, machine, DefaultIoT(), isa.ExecConfig{}, wrap)
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	for _, inj := range res.InjectedSamples {
		if inj {
			marked++
		}
	}
	if marked == 0 {
		t.Error("no power samples marked injected")
	}
	if marked > 40 {
		t.Errorf("%d samples marked; 100 instructions should span far fewer", marked)
	}
}

func TestMispredictionsSlowDeepPipelines(t *testing.T) {
	p := buildLoopProgram()
	machine, err := cfg.BuildMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	shallow := DefaultIoT()
	shallow.PipelineDepth = 4
	deep := DefaultIoT()
	deep.PipelineDepth = 24
	a, err := Run(p, machine, shallow, isa.ExecConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, machine, deep, isa.ExecConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Mispredicts != b.Stats.Mispredicts {
		t.Fatalf("mispredict counts differ: %d vs %d", a.Stats.Mispredicts, b.Stats.Mispredicts)
	}
	if b.Stats.Cycles <= a.Stats.Cycles {
		t.Errorf("deep pipeline (%d cycles) not slower than shallow (%d)", b.Stats.Cycles, a.Stats.Cycles)
	}
}

// TestROBLimitsMemoryParallelism: with long-latency loads in flight, a
// tiny ROB stalls dispatch while a large one overlaps the misses.
func TestROBLimitsMemoryParallelism(t *testing.T) {
	// Program: a pointer-free scan with a cache-missing load every
	// iteration (large stride defeats both cache levels).
	b := isa.NewBuilder("rob_test", 1<<20)
	entry := b.NewBlock("entry")
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	entry.Li(1, 4000).Li(0, 0).Li(2, 0).Li(3, 0)
	entry.Jump(head)
	head.Branch(isa.GT, 1, 0, body, exit)
	body.
		AddI(2, 2, 1024). // stride: 8 KB per access
		Load(4, 2, 0).    // independent miss
		Add(3, 3, 1).     // independent ALU work
		SubI(1, 1, 1)
	body.Jump(head)
	exit.Halt()
	p := b.Build()
	machine, err := cfg.BuildMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	run := func(rob int) int64 {
		c := DefaultOOO()
		c.ROBSize = rob
		res, err := Run(p, machine, c, isa.ExecConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Cycles
	}
	small := run(4)
	large := run(256)
	if large >= small {
		t.Errorf("256-entry ROB (%d cycles) not faster than 4-entry (%d cycles)", large, small)
	}
}

// BenchmarkEngineThroughput reports simulated instructions per second
// through isa.Execute and the timing engine: the two-nest test loop on
// the in-order core, then a MiBench workload under an in-loop injector
// on both cores.
func BenchmarkEngineThroughput(b *testing.B) {
	loop := buildLoopProgram()
	loopMachine, err := cfg.BuildMachine(loop)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("loop/iot", func(b *testing.B) {
		benchRuns(b, loop, loopMachine, DefaultIoT(), isa.ExecConfig{}, nil)
	})
	w := mibench.Bitcount()
	machine, err := cfg.BuildMachine(w.Program)
	if err != nil {
		b.Fatal(err)
	}
	inj := &inject.InLoop{Header: machine.Nests[0].Header, Instrs: 8, MemOps: 4, Contamination: 1, Seed: 1}
	execCfg := isa.ExecConfig{MaxInstrs: 20_000_000, InitMem: w.GenInput(0)}
	for _, core := range []struct {
		name string
		cfg  Config
	}{{"iot", DefaultIoT()}, {"ooo", DefaultOOO()}} {
		b.Run(w.Name+"/"+core.name+"/inloop", func(b *testing.B) {
			benchRuns(b, w.Program, machine, core.cfg, execCfg, inj.Wrap)
		})
	}
}

func benchRuns(b *testing.B, p *isa.Program, machine *cfg.Machine, c Config, execCfg isa.ExecConfig, wrap func(isa.Consumer) isa.Consumer) {
	var instrs int64
	for i := 0; i < b.N; i++ {
		res, err := Run(p, machine, c, execCfg, wrap)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Stats.DynInstrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}
