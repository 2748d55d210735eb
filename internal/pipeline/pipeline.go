// Package pipeline wires the full EDDIE stack together: workload →
// cycle-level simulation → (optional) EM channel → STS front end →
// training/monitoring. The experiment harnesses, the CLI tools and the
// examples all build on it.
package pipeline

import (
	"fmt"

	"eddie/internal/cfg"
	"eddie/internal/core"
	"eddie/internal/dsp"
	"eddie/internal/emsim"
	"eddie/internal/inject"
	"eddie/internal/isa"
	"eddie/internal/mibench"
	"eddie/internal/obs"
	"eddie/internal/par"
	"eddie/internal/sim"
	"eddie/internal/trace"
)

// Config describes one measurement pipeline: how the device is simulated
// and how its signal is captured and reduced to STSs.
type Config struct {
	// Sim is the simulated processor.
	Sim sim.Config
	// STFT controls the window analysis; its SampleRate must match
	// Sim.SampleRate(). Use DefaultSTFT.
	STFT dsp.STFTConfig
	// Peaks controls spectral peak extraction.
	Peaks dsp.PeakConfig
	// Denoise configures the optional SVD subspace denoising stage of the
	// front end (core.Frontend), applied to each power spectrum between
	// the STFT and peak extraction. The zero value disables it. Training
	// and monitoring run the one front end, so the stage is identical in
	// both.
	Denoise dsp.DenoiseConfig
	// Channel, when non-nil, passes the power trace through the EM
	// channel + receiver (the "real IoT device" mode of Table 1). Nil
	// feeds the raw simulator power signal to EDDIE (Table 2 mode).
	Channel *emsim.ChannelConfig
	// MaxInstrs bounds each run.
	MaxInstrs int64
	// Trace, when non-nil, records a span per pipeline stage (simulate →
	// em_channel → detrend → reduce) on a per-run track, exportable as
	// Chrome trace-event JSON. The reduce span covers the whole front-end
	// walk; per-window spans are the streaming detector's. Nil costs
	// nothing.
	Trace *obs.Recorder
}

// DefaultSTFT returns the paper-equivalent STFT configuration for a
// simulator configuration: ~41 µs windows with 50% overlap (the paper's
// 0.1 ms windows, scaled with the reduced clock; see DESIGN.md §5).
func DefaultSTFT(sc sim.Config) dsp.STFTConfig {
	return dsp.STFTConfig{
		WindowSize: 512,
		HopSize:    256,
		Window:     dsp.Hann,
		SampleRate: sc.SampleRate(),
	}
}

// DefaultConfig returns the Table 1 style pipeline (IoT core + EM channel).
func DefaultConfig() Config {
	sc := sim.DefaultIoT()
	ch := emsim.DefaultChannel(sc.SampleRate())
	return Config{
		Sim:       sc,
		STFT:      DefaultSTFT(sc),
		Peaks:     defaultPeaks(),
		Channel:   &ch,
		MaxInstrs: 20_000_000,
	}
}

// defaultPeaks adapts the paper's 1%-of-total-window-energy rule to the
// AC-coupled (detrended) signal: the paper's denominator includes the
// carrier/DC line, ours does not, so the equivalent threshold on AC-only
// energy is higher. 2% lands in the paper's 7–15 peaks-per-window regime.
// The lowest bins are excluded: slow gain drift and residual DC live
// there, not loop activity.
func defaultPeaks() dsp.PeakConfig {
	p := dsp.DefaultPeakConfig()
	p.MinEnergyFraction = 0.02
	p.MinBin = 3
	return p
}

// SimulatorConfig returns the Table 2 style pipeline (OOO core, raw power
// signal, no channel noise).
func SimulatorConfig() Config {
	sc := sim.DefaultOOO()
	return Config{
		Sim:       sc,
		STFT:      DefaultSTFT(sc),
		Peaks:     defaultPeaks(),
		Channel:   nil,
		MaxInstrs: 20_000_000,
	}
}

// Run is the outcome of one monitored (or training) run.
type Run struct {
	// STS is the Short-Term Spectrum sequence.
	STS []core.STS
	// Sim is the raw simulation result.
	Sim *sim.RunResult
	// Signal is the signal EDDIE analyzed (power trace or demodulated EM).
	Signal []float64
}

// HopSeconds returns the STS hop duration of the pipeline.
func (c *Config) HopSeconds() float64 { return c.STFT.HopDuration() }

// CollectRun executes one run of the workload and reduces it to STSs.
// injector may be nil (clean run). runIdx selects the input and the
// channel noise realization.
func CollectRun(w *mibench.Workload, machine *cfg.Machine, c Config, runIdx int, injector inject.Injector) (*Run, error) {
	if c.STFT.SampleRate != c.Sim.SampleRate() {
		return nil, fmt.Errorf("pipeline: STFT sample rate %g != simulator sample rate %g",
			c.STFT.SampleRate, c.Sim.SampleRate())
	}
	var tk obs.Track
	if c.Trace != nil {
		tk = c.Trace.Track(fmt.Sprintf("run %d (%s)", runIdx, w.Name))
	}
	execCfg := isa.ExecConfig{MaxInstrs: c.MaxInstrs, InitMem: w.GenInput(runIdx)}
	var res *sim.RunResult
	var err error
	sp := tk.Start("simulate")
	if injector == nil {
		res, err = sim.Run(w.Program, machine, c.Sim, execCfg, nil)
	} else {
		res, err = sim.Run(w.Program, machine, c.Sim, execCfg, injector.Wrap)
	}
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s run %d: %w", w.Name, runIdx, err)
	}

	signal := res.Power
	if c.Channel != nil {
		ch := *c.Channel
		ch.Seed = ch.Seed*1_000_003 + int64(runIdx)
		sp = tk.Start("em_channel")
		signal, err = emsim.Transmit(res.Power, ch)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("pipeline: EM channel: %w", err)
		}
	}
	sts, err := reduce(signal, res, c, tk)
	if err != nil {
		return nil, err
	}
	return &Run{STS: sts, Sim: res, Signal: signal}, nil
}

// Reduce converts a captured signal into the labeled STS sequence of its
// run: AC coupling, then the shared front end (STFT, optional denoising,
// peak extraction) and ground-truth labeling window by window. It is
// the signal-to-STS tail of CollectRun, split out so a capture can be
// re-reduced after signal-level processing — the robustness experiments
// impair one collected signal at many severities without re-simulating.
func Reduce(signal []float64, res *sim.RunResult, c Config) ([]core.STS, error) {
	var tk obs.Track
	if c.Trace != nil {
		tk = c.Trace.Track("reduce")
	}
	return reduce(signal, res, c, tk)
}

// reduce is Reduce on an explicit trace track (CollectRun reuses its
// per-run track). The capture is detrended once, walked hop by hop
// through the same core.Frontend the streaming detector runs, and each
// window labelled by its start sample. Per-window spans stay off the
// run track: one "reduce" span covers the walk.
func reduce(signal []float64, res *sim.RunResult, c Config, tk obs.Track) ([]core.STS, error) {
	sp := tk.Start("detrend")
	detrended := dsp.Detrend(signal)
	sp.End()
	sp = tk.Start("reduce")
	defer sp.End()
	fe, err := core.NewFrontend(c.STFT, c.Peaks, c.Denoise)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	sts := fe.Capture(detrended)
	lb := trace.NewLabeler(c.STFT, res)
	for i := range sts {
		sts[i].Region, sts[i].Injected = lb.Label(i * c.STFT.HopSize)
	}
	return sts, nil
}

// CollectRuns executes several runs (run indices firstRun..firstRun+n-1)
// on the process-wide worker pool (par.Parallelism() workers; see the
// -parallel flags and EDDIE_PARALLELISM). Each run is seeded by its run
// index and results are written by index, so the output is byte-identical
// to collecting the same indices serially. On error, the lowest failing
// run index's error is returned.
func CollectRuns(w *mibench.Workload, machine *cfg.Machine, c Config, firstRun, n int, injector inject.Injector) ([][]core.STS, error) {
	out := make([][]core.STS, n)
	err := par.Do(n, 0, func(i int) error {
		r, err := CollectRun(w, machine, c, firstRun+i, injector)
		if err != nil {
			return err
		}
		out[i] = r.STS
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Train builds the region machine and trains a model from n clean runs.
func Train(w *mibench.Workload, c Config, nRuns int, tc core.TrainConfig) (*core.Model, *cfg.Machine, error) {
	machine, err := cfg.BuildMachine(w.Program)
	if err != nil {
		return nil, nil, err
	}
	runs, err := CollectRuns(w, machine, c, 0, nRuns, nil)
	if err != nil {
		return nil, nil, err
	}
	model, err := core.Train(w.Name, machine, runs, tc)
	if err != nil {
		return nil, nil, err
	}
	return model, machine, nil
}

// Monitor replays one STS sequence through a fresh monitor and returns it.
func Monitor(model *core.Model, sts []core.STS, mc core.MonitorConfig) (*core.Monitor, error) {
	mon, err := core.NewMonitor(model, mc)
	if err != nil {
		return nil, err
	}
	for i := range sts {
		mon.Observe(&sts[i])
	}
	return mon, nil
}

// MonitorAndScore replays a run and evaluates it against ground truth.
func MonitorAndScore(model *core.Model, c Config, sts []core.STS, mc core.MonitorConfig) (*core.Metrics, error) {
	mon, err := Monitor(model, sts, mc)
	if err != nil {
		return nil, err
	}
	return core.Evaluate(model, sts, mon.Outcomes, mon.Reports, c.HopSeconds())
}

// HotLoopHeaders profiles one functional run and returns, per nest, the
// loop header entered most often (the innermost hot loop).
func HotLoopHeaders(w *mibench.Workload, machine *cfg.Machine) ([]isa.BlockID, error) {
	loops := cfg.NaturalLoops(machine.Graph)
	isHeader := map[isa.BlockID]bool{}
	for _, l := range loops {
		isHeader[l.Header] = true
	}
	entries := map[isa.BlockID]int64{}
	prev := isa.NoBlock
	_, err := isa.Execute(w.Program, isa.ExecConfig{
		MaxInstrs: 20_000_000,
		InitMem:   w.GenInput(0),
	}, func(di *isa.DynInstr) bool {
		if di.Block != prev {
			prev = di.Block
			if isHeader[di.Block] {
				entries[di.Block]++
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	out := make([]isa.BlockID, len(machine.Nests))
	for i, nest := range machine.Nests {
		best := nest.Header
		var bestCount int64 = -1
		for _, l := range loops {
			if !nest.Blocks[l.Header] {
				continue
			}
			if c := entries[l.Header]; c > bestCount {
				bestCount = c
				best = l.Header
			}
		}
		out[i] = best
	}
	return out, nil
}
