// Package eddie is a from-scratch reproduction of EDDIE — "EM-Based
// Detection of Deviations in Program Execution" (Nazari, Sehatbakhsh,
// Alam, Zajic, Prvulovic; ISCA 2017) — as a reusable Go library.
//
// EDDIE monitors a device without touching it: it receives the
// electromagnetic signal the processor emits as a side effect of
// execution, converts it into a sequence of Short-Term Spectra (STSs),
// and uses nonparametric (Kolmogorov–Smirnov) tests to decide whether the
// observed spectra are statistically consistent with the spectra recorded
// during training for the program region currently executing. Loops
// produce spectral peaks at their per-iteration frequency, so injected
// code — even a few instructions inside a loop body — shifts or adds
// peaks and is detected.
//
// Because the original system needs an instrumented board, an EM probe
// and a software-defined radio, this reproduction ships its own substrate:
// a small ISA with ten MiBench-equivalent workloads, a cycle-level
// simulator with a power model (the SESC/WATTCH stand-in), and an EM
// channel model (AM modulation, noise, interference, envelope receiver).
// See DESIGN.md for the substitution map and EXPERIMENTS.md for the
// paper-versus-measured comparison of every table and figure.
//
// # Quick start
//
//	w, _ := eddie.WorkloadByName("bitcount")
//	cfg := eddie.IoTPipeline() // in-order core + EM channel
//	model, machine, err := eddie.Train(w, cfg, 25, eddie.DefaultTrainConfig())
//	// monitor a run with a code-injection attack
//	attack := eddie.NewBurstInjector(machine, 1, 476_000)
//	run, err := eddie.CollectRun(w, machine, cfg, 100, attack)
//	mon, err := eddie.NewMonitor(model, eddie.DefaultMonitorConfig())
//	for i := range run.STS {
//	    if mon.Observe(&run.STS[i]) {
//	        fmt.Println("anomaly reported at", run.STS[i].TimeSec)
//	    }
//	}
package eddie

import (
	"net/http"

	"eddie/internal/cfg"
	"eddie/internal/coord"
	"eddie/internal/core"
	"eddie/internal/dsp"
	"eddie/internal/fleet"
	"eddie/internal/inject"
	"eddie/internal/isa"
	"eddie/internal/metrics"
	"eddie/internal/mibench"
	"eddie/internal/obs"
	"eddie/internal/par"
	"eddie/internal/pipeline"
	"eddie/internal/stream"
)

// SetParallelism fixes the worker-pool size used by CollectRuns and the
// experiment harnesses. n <= 0 restores the default: the EDDIE_PARALLELISM
// environment variable if set, otherwise GOMAXPROCS. Parallel collection
// produces byte-identical results to serial execution at any setting.
func SetParallelism(n int) { par.SetParallelism(n) }

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Model is a trained characterization of one program's normal
	// execution: per-region reference STS distributions plus the
	// region-level state machine.
	Model = core.Model
	// Monitor consumes a stream of STSs and reports anomalies.
	Monitor = core.Monitor
	// STS is one Short-Term Spectrum reduced to its peak frequencies.
	STS = core.STS
	// Metrics are evaluation results (latency, FP/FN, accuracy, coverage).
	Metrics = core.Metrics
	// TrainConfig controls training.
	TrainConfig = core.TrainConfig
	// MonitorConfig controls monitoring (report threshold etc.).
	MonitorConfig = core.MonitorConfig
	// AdaptConfig controls the optional drift-adaptive reference layer
	// (MonitorConfig.Adapt); the zero value disables it.
	AdaptConfig = core.AdaptConfig
	// PipelineConfig describes the measurement pipeline: simulated core,
	// STFT parameters, optional EM channel.
	PipelineConfig = pipeline.Config
	// Run is one collected run: STS sequence plus simulation artifacts.
	Run = pipeline.Run
	// Machine is the region-level state machine of a program.
	Machine = cfg.Machine
	// RegionID identifies a region in a Machine.
	RegionID = cfg.RegionID
	// Workload is a benchmark program with its input generator.
	Workload = mibench.Workload
	// Injector is a code-injection attack model.
	Injector = inject.Injector
	// Detector is the streaming (online) form of EDDIE: it consumes raw
	// receiver samples and raises reports without any whole-capture pass.
	Detector = stream.Detector
	// Spectrogram is a time-frequency power matrix with an ASCII renderer.
	Spectrogram = dsp.Spectrogram
	// StreamConfig configures the streaming detector (STFT, monitor,
	// optional impairment injection, metrics and ground-truth wiring).
	StreamConfig = stream.Config
	// DenoiseConfig configures the optional SVD subspace denoising stage
	// shared by PipelineConfig.Denoise and StreamConfig.Denoise; the zero
	// value disables it.
	DenoiseConfig = dsp.DenoiseConfig
	// DetectorMetrics bundles a detector's runtime counters and
	// histograms; it plugs into StreamConfig.Metrics or
	// MonitorConfig.Stats.
	DetectorMetrics = metrics.Detector
	// MetricsRegistry is a named collection of counters and histograms
	// with deterministic JSON output.
	MetricsRegistry = metrics.Registry
	// TraceRecorder collects timing spans from every pipeline and detector
	// stage; export them as Chrome trace-event JSON (Perfetto-loadable)
	// with WriteChromeTrace. A nil recorder costs nothing.
	TraceRecorder = obs.Recorder
	// FlightRecorder keeps a bounded ring of per-window decision
	// provenance records and snapshots the ring when an alarm fires.
	// A detector takes it in StreamConfig.Flight (its one attach point;
	// the detector replaces its monitor config's Flight with it), a bare
	// monitor in MonitorConfig.Flight; nil keeps nothing.
	FlightRecorder = obs.FlightRecorder
	// AlarmJournal is the durable append-only JSONL event log recording
	// fleet lifecycle events and every alarm with its full flight dump;
	// recover with RecoverAlarmJournal after a crash.
	AlarmJournal = obs.Journal
	// AlarmJournalConfig configures an AlarmJournal: directory, rotation
	// size, fsync policy.
	AlarmJournalConfig = obs.JournalConfig
	// RecoveredJournal is the result of replaying a journal directory,
	// tolerant of a torn tail from a crash mid-append.
	RecoveredJournal = obs.RecoveredJournal
	// AlarmStream fans journaled alarm events out to live subscribers
	// (the /eddie/alarms SSE endpoint) with bounded per-subscriber
	// queues and drop-slowest overflow.
	AlarmStream = obs.AlarmStream
	// SLOTracker tracks frame-to-verdict latency against an error budget
	// and derives multi-window burn-rate health for /eddie/healthz.
	SLOTracker = obs.SLOTracker
	// SLOConfig sets the SLO budget, objective and burn thresholds.
	SLOConfig = obs.SLOConfig
	// ServeState wires observability components into NewServeMux.
	ServeState = obs.ServeState
	// FleetServer hosts one streaming detector session per connected
	// device over a small length-prefixed TCP protocol (eddie -fleet).
	FleetServer = fleet.Server
	// FleetConfig configures a FleetServer: model source, per-session
	// stream template, session/backpressure/timeout bounds, registry.
	FleetConfig = fleet.Config
	// FleetDirModels serves fleet models from a directory of files saved
	// by SaveModel, cached and shared across sessions.
	FleetDirModels = fleet.DirModels
	// FleetClient is the reference device client: dial, stream samples,
	// collect reports.
	FleetClient = fleet.Client
	// FleetHello opens a fleet session (device name, workload name).
	FleetHello = fleet.Hello
	// Coordinator fronts N fleet backends and shards devices across
	// them by consistent hash of device ID (eddie -coord).
	Coordinator = coord.Coordinator
	// CoordinatorConfig configures a Coordinator: backend addresses,
	// ring geometry, health-probe cadence, registry, journal.
	CoordinatorConfig = coord.Config
)

// DefaultTrainConfig returns the paper-equivalent training configuration
// (99% K-S confidence, per-region group-size selection).
func DefaultTrainConfig() TrainConfig { return core.DefaultTrainConfig() }

// DefaultMonitorConfig returns the paper's monitoring operating point
// (reportThreshold = 3).
func DefaultMonitorConfig() MonitorConfig { return core.DefaultMonitorConfig() }

// IoTPipeline returns the "real IoT device" pipeline of the paper's
// Table 1: an in-order Cortex-A8-like core whose power emissions pass
// through an EM channel (AM modulation, noise, interferers) and an
// envelope receiver.
func IoTPipeline() PipelineConfig { return pipeline.DefaultConfig() }

// SimulatorPipeline returns the paper's Table 2 setup: an out-of-order
// core whose simulator power signal feeds EDDIE directly.
func SimulatorPipeline() PipelineConfig { return pipeline.SimulatorConfig() }

// Workloads returns the ten MiBench-equivalent benchmark workloads.
func Workloads() []*Workload { return mibench.All() }

// WorkloadByName returns one workload by its MiBench name.
func WorkloadByName(name string) (*Workload, error) { return mibench.ByName(name) }

// BuildMachine derives the region-level state machine of a workload's
// program (the compile-time analysis of the paper's §4.1).
func BuildMachine(w *Workload) (*Machine, error) { return cfg.BuildMachine(w.Program) }

// Train collects nRuns injection-free training runs of the workload and
// builds an EDDIE model.
func Train(w *Workload, c PipelineConfig, nRuns int, tc TrainConfig) (*Model, *Machine, error) {
	return pipeline.Train(w, c, nRuns, tc)
}

// CollectRun executes one run (with an optional injected attack) and
// returns its STS sequence. runIdx selects the input data and channel
// noise realization; use indices disjoint from training for monitoring.
func CollectRun(w *Workload, m *Machine, c PipelineConfig, runIdx int, attack Injector) (*Run, error) {
	return pipeline.CollectRun(w, m, c, runIdx, attack)
}

// CollectRuns collects n runs (indices firstRun..firstRun+n-1) on the
// worker pool (see SetParallelism) and returns each run's STS sequence.
// The output is byte-identical to collecting the runs serially.
func CollectRuns(w *Workload, m *Machine, c PipelineConfig, firstRun, n int, attack Injector) ([][]STS, error) {
	return pipeline.CollectRuns(w, m, c, firstRun, n, attack)
}

// NewMonitor creates a monitor for a trained model.
func NewMonitor(model *Model, mc MonitorConfig) (*Monitor, error) {
	return core.NewMonitor(model, mc)
}

// MonitorRun replays a collected run through a fresh monitor.
func MonitorRun(model *Model, run *Run, mc MonitorConfig) (*Monitor, error) {
	return pipeline.Monitor(model, run.STS, mc)
}

// Evaluate scores a monitored run against its ground-truth labels.
func Evaluate(model *Model, c PipelineConfig, run *Run, mon *Monitor) (*Metrics, error) {
	return core.Evaluate(model, run.STS, mon.Outcomes, mon.Reports, c.HopSeconds())
}

// NewSpectrogram computes the spectrogram of a collected run's signal
// (AC-coupled) under the pipeline's STFT settings.
func NewSpectrogram(signal []float64, c PipelineConfig) (*Spectrogram, error) {
	return dsp.NewSpectrogram(dsp.Detrend(signal), c.STFT)
}

// NewDetector creates a streaming detector: feed it raw signal samples
// with Feed and it raises anomaly reports online, using the pipeline's
// STFT and peak settings. mc's Stats, Trace and Flight hooks attach to
// the whole detector (StreamConfig.Metrics, Trace and Flight).
func NewDetector(model *Model, c PipelineConfig, mc MonitorConfig) (*Detector, error) {
	return stream.NewDetector(model, stream.Config{
		STFT:    c.STFT,
		Peaks:   c.Peaks,
		Monitor: mc,
		Metrics: mc.Stats,
		Trace:   mc.Trace,
		Flight:  mc.Flight,
	})
}

// NewDetectorMetrics creates a metrics bundle on a fresh registry. Hand
// it to StreamConfig.Metrics (streaming) or MonitorConfig.Stats
// (offline monitoring); read results from its typed fields or the Reg
// registry's JSON.
func NewDetectorMetrics() *DetectorMetrics { return metrics.NewDetector() }

// NewMetricsRegistry creates an empty metrics registry, for components
// that carry no detector of their own (e.g. the fleet coordinator).
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewTraceRecorder creates a span recorder for PipelineConfig.Trace,
// StreamConfig.Trace or MonitorConfig.Trace.
func NewTraceRecorder() *TraceRecorder { return obs.NewRecorder() }

// NewFlightRecorder creates a decision-provenance flight recorder
// keeping the last depth windows (depth <= 0 uses the default of 64).
func NewFlightRecorder(depth int) *FlightRecorder { return obs.NewFlightRecorder(depth) }

// Journal fsync policies for AlarmJournalConfig.Fsync.
const (
	JournalFsyncAlways   = obs.FsyncAlways
	JournalFsyncInterval = obs.FsyncInterval
	JournalFsyncNever    = obs.FsyncNever
)

// Defaults for the zero-valued AdaptConfig fields.
const (
	DefaultAdaptRate           = core.DefaultAdaptRate
	DefaultAdaptMinCleanStreak = core.DefaultAdaptMinCleanStreak
)

// OpenAlarmJournal opens a durable alarm/event journal in cfg.Dir,
// always starting a fresh numbered file. Wire it into
// FleetConfig.Journal and close it after the server stops.
func OpenAlarmJournal(cfg AlarmJournalConfig) (*AlarmJournal, error) { return obs.OpenJournal(cfg) }

// RecoverAlarmJournal replays every journal file in dir in sequence
// order, tolerating a torn final line from a crash mid-append.
func RecoverAlarmJournal(dir string) (*RecoveredJournal, error) { return obs.RecoverJournal(dir) }

// NewAlarmStream creates a live alarm fan-out for FleetConfig.Alarms
// and the /eddie/alarms SSE endpoint.
func NewAlarmStream() *AlarmStream { return obs.NewAlarmStream() }

// NewSLOTracker creates a latency SLO tracker for FleetConfig.SLO and
// the /eddie/healthz endpoint; a zero SLOConfig uses the defaults
// (500ms p99 budget, 5m/1h burn windows).
func NewSLOTracker(cfg SLOConfig) *SLOTracker { return obs.NewSLOTracker(cfg) }

// NewServeMux builds the eddie -serve HTTP handler: /debug/vars
// (expvar), /debug/pprof/*, /metrics (Prometheus text exposition of the
// registry), /eddie/last-alarm, /eddie/flight, /eddie/fleet,
// /eddie/healthz, /eddie/alarms and /eddie/trace. Any ServeState field
// may be nil; the corresponding endpoint then reports not found or
// serves empty data.
func NewServeMux(s ServeState) *http.ServeMux { return obs.NewMux(s) }

// NewFleetServer creates a fleet monitoring server; start it with
// ListenAndServe (or Serve on an existing listener) and stop it with
// Shutdown for a graceful drain.
func NewFleetServer(c FleetConfig) (*FleetServer, error) { return fleet.NewServer(c) }

// NewCoordinator creates a multi-node fleet coordinator fronting the
// configured backends (eddie -coord) and starts its health probes; call
// Serve or ListenAndServe to start redirecting devices.
func NewCoordinator(c CoordinatorConfig) (*Coordinator, error) { return coord.New(c) }

// NewFleetDirModels creates a fleet model source backed by a directory
// of model files saved by SaveModel, one per workload
// (<dir>/<workload>.json).
func NewFleetDirModels(dir string) *FleetDirModels { return fleet.NewDirModels(dir) }

// DialFleet connects a device client to a fleet server: stream samples
// with Send, then Finish to collect the summary and reports.
func DialFleet(addr string, hello FleetHello) (*FleetClient, error) {
	return fleet.Dial(addr, hello)
}

// DefaultFleetMaxSessions is the memory-derived session bound a zero
// FleetConfig.MaxSessions resolves to on this node.
func DefaultFleetMaxSessions() int { return fleet.DefaultMaxSessions() }

// HotLoopHeaders profiles the workload and returns, per loop nest, the
// inner loop header executed most often — the natural in-loop injection
// site for an attacker maximizing work per unit time. The returned block
// ids feed NewInLoopInjectorAt.
func HotLoopHeaders(w *Workload, m *Machine) ([]int, error) {
	headers, err := pipeline.HotLoopHeaders(w, m)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(headers))
	for i, h := range headers {
		out[i] = int(h)
	}
	return out, nil
}

// NewInLoopInjectorAt is like NewInLoopInjector but targets an explicit
// basic block (e.g. an inner loop header found by profiling) instead of a
// nest's outermost header.
func NewInLoopInjectorAt(block int, instrs, memOps int, contamination float64, seed int64) Injector {
	return &inject.InLoop{
		Header:        isa.BlockID(block),
		Instrs:        instrs,
		MemOps:        memOps,
		Contamination: contamination,
		Seed:          seed,
	}
}

// SaveModel writes a trained model to a JSON file, so monitoring sessions
// can start without re-training.
func SaveModel(model *Model, path string) error { return model.SaveFile(path) }

// LoadModel reads a model saved by SaveModel. The machine must have been
// rebuilt (BuildMachine) from the same workload program; the loader
// verifies the structural fingerprint.
func LoadModel(path string, machine *Machine) (*Model, error) {
	return core.LoadModelFile(path, machine)
}

// NewBurstInjector returns an attack that injects one burst of count
// dynamic instructions (an empty-loop "shellcode") the first time control
// leaves the given loop nest.
func NewBurstInjector(m *Machine, fromNest, count int) Injector {
	return &inject.Burst{BlockNest: m.BlockNest, FromNest: fromNest, Count: count}
}

// NewInLoopInjector returns an attack that injects instrs instructions
// (memOps of them cache-hostile stores, the rest integer adds) into the
// given fraction of the iterations of the loop headed by the nest's
// header block.
func NewInLoopInjector(m *Machine, nest, instrs, memOps int, contamination float64, seed int64) Injector {
	return &inject.InLoop{
		Header:        m.Nests[nest].Header,
		Instrs:        instrs,
		MemOps:        memOps,
		Contamination: contamination,
		Seed:          seed,
	}
}
