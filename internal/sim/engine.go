package sim

import (
	"fmt"

	"eddie/internal/cfg"
	"eddie/internal/isa"
)

// Segment is one region-occupancy interval of the execution: the program
// was in Region for cycles [StartCycle, EndCycle).
type Segment struct {
	Region     cfg.RegionID
	StartCycle int64
	EndCycle   int64
}

// Stats collects microarchitectural counters for one run.
type Stats struct {
	DynInstrs   int64
	Cycles      int64
	L1Accesses  int64
	L1Misses    int64
	L2Accesses  int64
	L2Misses    int64
	Branches    int64
	Mispredicts int64
}

// IPC returns instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.DynInstrs) / float64(s.Cycles)
}

// Engine is the timing/power model. Feed it the dynamic instruction stream
// (optionally after an injector has tampered with it) and call Finalize.
type Engine struct {
	cfg     Config
	machine *cfg.Machine
	hier    *hierarchy
	pred    *bimodal

	regReady   [isa.NumRegs]int64
	fetchAvail int64
	lastIssue  int64
	lastRetire int64
	maxCycle   int64
	idx        int64
	widthRing  []int64
	retireRing []int64
	// widthSlot and retireSlot are idx modulo the ring lengths, kept as
	// wrapping cursors so the per-instruction path never divides.
	widthSlot  int
	retireSlot int

	energy   []float64
	injected []bool
	// sample is the power sample holding cycles [sampleLo, sampleHi);
	// the issue cycle is divided by SamplePeriod only when it leaves
	// that range.
	sample             int
	sampleLo, sampleHi int64

	// Region tracking. curNest >= 0 while inside a loop nest; -1 during a
	// transition. lastNest remembers the loop nest we most recently left;
	// lastBlock is the block of the previous instruction.
	curNest    int
	lastNest   int
	lastBlock  isa.BlockID
	segStart   int64
	transStart int64
	segments   []Segment

	stats Stats
}

// NewEngine creates a timing engine for one run. machine provides the
// block-to-region mapping used for the region trace.
func NewEngine(machine *cfg.Machine, config Config) (*Engine, error) {
	if err := config.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:       config,
		machine:   machine,
		hier:      newHierarchy(config),
		pred:      newBimodal(config.PredictorEntries),
		widthRing: make([]int64, config.IssueWidth),
		curNest:   -1,
		lastNest:  cfg.Boundary,
		lastBlock: isa.NoBlock,
		energy:    make([]float64, 1),
		sampleHi:  int64(config.SamplePeriod),
	}
	if config.Kind == OutOfOrder {
		e.retireRing = make([]int64, config.ROBSize)
	}
	return e, nil
}

// Feed consumes one dynamic instruction. It always returns true (the
// engine never aborts a run); the signature matches isa.Consumer.
func (e *Engine) Feed(di *isa.DynInstr) bool {
	c := &e.cfg
	earliest := e.fetchAvail
	if e.idx >= int64(c.IssueWidth) {
		if t := e.widthRing[e.widthSlot] + 1; t > earliest {
			earliest = t
		}
	}
	if c.Kind == OutOfOrder {
		if e.idx >= int64(c.ROBSize) {
			if t := e.retireRing[e.retireSlot]; t > earliest {
				earliest = t
			}
		}
	} else if e.lastIssue > earliest {
		// In-order issue: never issue before an older instruction.
		earliest = e.lastIssue
	}

	srcReady := e.sourceReady(di)
	issue := earliest
	if srcReady > issue {
		issue = srcReady
	}

	energy := c.Energy.Fetch
	var lat int64 = 1
	switch {
	case di.IsBranch:
		e.stats.Branches++
		energy += c.Energy.Branch
		correct := e.pred.predictAndUpdate(uint64(di.Block), di.Taken)
		if !correct {
			e.fetchAvail = issue + lat + int64(c.PipelineDepth)
			energy += c.Energy.Mispred
		}
	case di.Op == isa.Mul:
		lat = 4
		energy += c.Energy.Mul
	case di.Op == isa.Div || di.Op == isa.Rem:
		lat = 12
		energy += c.Energy.Div
	case di.Op == isa.Load:
		memLat, level := e.hier.access(di.MemAddr)
		lat = memLat
		energy += e.memEnergy(level)
	case di.Op == isa.Store:
		// Stores retire through a write buffer: dependents don't wait for
		// the cache, but the access still happens (for state and energy).
		_, level := e.hier.access(di.MemAddr)
		lat = 1
		energy += e.memEnergy(level)
	default:
		energy += c.Energy.ALU
	}

	complete := issue + lat
	if e.writesDst(di) {
		e.regReady[di.Dst] = complete
	}
	retire := complete
	if e.lastRetire > retire {
		retire = e.lastRetire
	}
	e.lastRetire = retire
	if retire > e.maxCycle {
		e.maxCycle = retire
	}
	e.widthRing[e.widthSlot] = issue
	if e.widthSlot++; e.widthSlot == len(e.widthRing) {
		e.widthSlot = 0
	}
	if c.Kind == OutOfOrder {
		e.retireRing[e.retireSlot] = retire
		if e.retireSlot++; e.retireSlot == len(e.retireRing) {
			e.retireSlot = 0
		}
	} else {
		e.lastIssue = issue
	}
	e.idx++
	e.stats.DynInstrs++

	k := e.sampleOf(issue)
	e.energy[k] += energy
	if di.Injected {
		if len(e.injected) <= k {
			e.injected = extend(e.injected, k+1)
		}
		e.injected[k] = true
	}
	if di.Block != e.lastBlock {
		e.lastBlock = di.Block
		e.trackRegion(di, retire)
	}
	return true
}

// sampleOf returns the index of the power sample holding cycle, growing
// the energy trace to include it. Issue cycles mostly stay in the current
// sample or step to the next one; only a longer jump divides.
func (e *Engine) sampleOf(cycle int64) int {
	if cycle < e.sampleLo || cycle >= e.sampleHi {
		period := int64(e.cfg.SamplePeriod)
		if cycle >= e.sampleHi && cycle < e.sampleHi+period {
			e.sample++
		} else {
			e.sample = int(cycle / period)
		}
		e.sampleLo = int64(e.sample) * period
		e.sampleHi = e.sampleLo + period
		if len(e.energy) <= e.sample {
			e.energy = extend(e.energy, e.sample+1)
		}
	}
	return e.sample
}

// extend lengthens s to n zero-valued elements, at least doubling its
// capacity when it must reallocate. The engine's traces only grow, so
// the spare capacity past len(s) is still zero.
func extend[T any](s []T, n int) []T {
	if n > cap(s) {
		t := make([]T, len(s), max(n, 2*cap(s)))
		copy(t, s)
		s = t
	}
	return s[:n]
}

func (e *Engine) sourceReady(di *isa.DynInstr) int64 {
	switch {
	case di.IsBranch:
		return max64(e.regReady[di.A], e.regReady[di.B])
	case di.Op == isa.Nop || di.Op == isa.LoadImm:
		return 0
	case di.Op == isa.Mov || di.Op == isa.Load:
		return e.regReady[di.A]
	case di.Op == isa.Store:
		return max64(e.regReady[di.A], e.regReady[di.B])
	default:
		return max64(e.regReady[di.A], e.regReady[di.B])
	}
}

func (e *Engine) writesDst(di *isa.DynInstr) bool {
	if di.IsBranch || di.Injected {
		// Injected instructions use no architectural registers (the
		// paper's idealized dead-register injection), so they never
		// lengthen the host program's dependence chains.
		return false
	}
	switch di.Op {
	case isa.Nop, isa.Store:
		return false
	default:
		return true
	}
}

func (e *Engine) memEnergy(level memLevel) float64 {
	c := &e.cfg.Energy
	switch level {
	case hitL1:
		return c.L1Access
	case hitL2:
		return c.L1Access + c.L2Access
	default:
		return c.L1Access + c.L2Access + c.MemAccess
	}
}

// trackRegion advances the region trace given the block of the current
// instruction and the current (retire) cycle. Feed calls it only when the
// block changes: a repeated block maps to the same nest, which leaves the
// trace as it is.
func (e *Engine) trackRegion(di *isa.DynInstr, now int64) {
	nest := -1
	if int(di.Block) < len(e.machine.BlockNest) {
		nest = e.machine.BlockNest[di.Block]
	}
	if e.curNest >= 0 {
		switch {
		case nest == e.curNest:
			return
		case nest >= 0:
			// Direct hop from one nest to another.
			e.closeLoopSegment(now)
			e.curNest = nest
			e.segStart = now
		default:
			// Left the nest into inter-loop code.
			e.closeLoopSegment(now)
			e.curNest = -1
			e.transStart = now
		}
		return
	}
	// Currently in a transition (or at program start).
	if nest < 0 {
		return
	}
	if now > e.transStart {
		if id, ok := e.machine.TransRegionOf(e.lastNest, nest); ok {
			e.segments = append(e.segments, Segment{Region: id, StartCycle: e.transStart, EndCycle: now})
		} else {
			e.segments = append(e.segments, Segment{Region: cfg.NoRegion, StartCycle: e.transStart, EndCycle: now})
		}
	}
	e.curNest = nest
	e.segStart = now
}

func (e *Engine) closeLoopSegment(now int64) {
	if now > e.segStart {
		e.segments = append(e.segments, Segment{
			Region:     e.machine.LoopRegionOf(e.curNest),
			StartCycle: e.segStart,
			EndCycle:   now,
		})
	}
	e.lastNest = e.curNest
}

// RunResult is the output of one simulated run.
type RunResult struct {
	// Power is the sampled power trace: Power[k] is the average power in
	// cycles [k*SamplePeriod, (k+1)*SamplePeriod).
	Power []float64
	// InjectedSamples flags power samples whose interval contained at
	// least one injected instruction (ground truth for evaluation).
	InjectedSamples []bool
	// Segments is the region trace in cycles.
	Segments []Segment
	// Stats are the microarchitectural counters.
	Stats Stats
	// Config echoes the simulator configuration of the run.
	Config Config
}

// Duration returns the run length in seconds.
func (r *RunResult) Duration() float64 {
	return float64(r.Stats.Cycles) / r.Config.ClockHz
}

// Finalize closes the region trace and materializes the power signal.
func (e *Engine) Finalize() *RunResult {
	end := e.maxCycle + 1
	if e.curNest >= 0 {
		e.closeLoopSegment(end)
	} else if end > e.transStart {
		if id, ok := e.machine.TransRegionOf(e.lastNest, cfg.Boundary); ok {
			e.segments = append(e.segments, Segment{Region: id, StartCycle: e.transStart, EndCycle: end})
		} else {
			e.segments = append(e.segments, Segment{Region: cfg.NoRegion, StartCycle: e.transStart, EndCycle: end})
		}
	}
	nSamples := int(e.maxCycle/int64(e.cfg.SamplePeriod)) + 1
	power := make([]float64, nSamples)
	period := float64(e.cfg.SamplePeriod)
	for k := 0; k < nSamples; k++ {
		var dyn float64
		if k < len(e.energy) {
			dyn = e.energy[k]
		}
		power[k] = dyn/period + e.cfg.Energy.Leakage
	}
	injected := make([]bool, nSamples)
	copy(injected, e.injected)

	e.stats.Cycles = end
	e.stats.L1Accesses = e.hier.l1.Accesses
	e.stats.L1Misses = e.hier.l1.Misses
	e.stats.L2Accesses = e.hier.l2.Accesses
	e.stats.L2Misses = e.hier.l2.Misses
	e.stats.Mispredicts = e.pred.Mispredicts

	return &RunResult{
		Power:           power,
		InjectedSamples: injected,
		Segments:        e.segments,
		Stats:           e.stats,
		Config:          e.cfg,
	}
}

// Run executes program p functionally and through the timing model in one
// call. wrap, if non-nil, intercepts the dynamic instruction stream (this
// is where attack injectors hook in). machine must have been built for p.
func Run(p *isa.Program, machine *cfg.Machine, config Config, execCfg isa.ExecConfig, wrap func(isa.Consumer) isa.Consumer) (*RunResult, error) {
	if machine.Graph.Program != p {
		return nil, fmt.Errorf("sim: region machine was built for program %q, not %q", machine.Graph.Program.Name, p.Name)
	}
	engine, err := NewEngine(machine, config)
	if err != nil {
		return nil, err
	}
	consumer := isa.Consumer(engine.Feed)
	if wrap != nil {
		consumer = wrap(consumer)
	}
	if _, err := isa.Execute(p, execCfg, consumer); err != nil {
		return nil, err
	}
	return engine.Finalize(), nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
