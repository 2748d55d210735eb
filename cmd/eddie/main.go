// Command eddie trains an EDDIE model on one workload and monitors runs,
// optionally with an injected attack.
//
// Usage:
//
//	eddie -workload bitcount -mode iot -train 25 -monitor 5 \
//	      -attack burst -burst-size 476000 -nest 1
//
//	eddie -workload susan -mode sim -attack inloop -instrs 8 \
//	      -memops 4 -contamination 0.5
//
//	eddie -metrics ...            # also print detector metrics as JSON
//	eddie -experiment robustness  # impairment sweep -> BENCH_robustness.json
//	eddie -trace-out trace.json ...         # Chrome/Perfetto trace of every stage
//	eddie -serve :8080 ...        # expvar, pprof, Prometheus metrics, last alarm
//	eddie -fleet :9000 -model-dir models/   # multi-device monitoring server
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"eddie"
	"eddie/internal/experiments"
)

// options are the parsed command-line flags.
type options struct {
	workload      string
	list          bool
	mode          string
	trainRuns     int
	monitorRuns   int
	attack        string
	burstSize     int
	nest          int
	instrs        int
	memOps        int
	contamination float64
	saveModel     string
	loadModel     string
	verbose       bool
	parallel      int
	showMetrics   bool
	experiment    string
	outFile       string
	short         bool
	traceOut      string
	serveAddr     string
	fleetAddr     string
	coordAddr     string
	backends      string
	modelDir      string
	maxSessions   int
	fleetShards   int
	drainTimeout  time.Duration
	denoiseRank   int
	denoiseBlock  int
	denoiseStride int
	version       bool
	journalDir    string
	journalMaxMB  int
	journalFsync  string
	adapt         bool
	adaptRate     float64
	adaptGuard    int
}

// adaptConfig builds the drift-adaptive reference layer configuration
// from the flags; the zero value (adapt off) disables the layer.
func (o *options) adaptConfig() eddie.AdaptConfig {
	if !o.adapt {
		return eddie.AdaptConfig{}
	}
	return eddie.AdaptConfig{
		Enabled:        true,
		Rate:           o.adaptRate,
		MinCleanStreak: o.adaptGuard,
	}
}

// denoise builds the subspace-denoising configuration from the flags;
// the zero value (rank 0) disables the stage.
func (o *options) denoise() eddie.DenoiseConfig {
	if o.denoiseRank == 0 {
		return eddie.DenoiseConfig{}
	}
	return eddie.DenoiseConfig{
		Rank:   o.denoiseRank,
		Block:  o.denoiseBlock,
		Stride: o.denoiseStride,
	}
}

// backendList splits -backends into trimmed addresses.
func (o *options) backendList() []string {
	parts := strings.Split(o.backends, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

// parseArgs parses flags from args with a dedicated FlagSet so tests can
// drive the CLI without touching the process-global flag state.
func parseArgs(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("eddie", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "bitcount", "workload name (see -list)")
	fs.BoolVar(&o.list, "list", false, "list workloads and exit")
	fs.StringVar(&o.mode, "mode", "iot", `pipeline: "iot" (EM channel) or "sim" (raw power)`)
	fs.IntVar(&o.trainRuns, "train", 10, "training runs")
	fs.IntVar(&o.monitorRuns, "monitor", 3, "monitoring runs")
	fs.StringVar(&o.attack, "attack", "none", `attack: "none", "burst" or "inloop"`)
	fs.IntVar(&o.burstSize, "burst-size", 476_000, "burst attack: dynamic instruction count")
	fs.IntVar(&o.nest, "nest", 0, "attack target loop nest")
	fs.IntVar(&o.instrs, "instrs", 8, "in-loop attack: instructions per iteration")
	fs.IntVar(&o.memOps, "memops", 4, "in-loop attack: memory ops among the injected instructions")
	fs.Float64Var(&o.contamination, "contamination", 1.0, "in-loop attack: fraction of iterations injected")
	fs.StringVar(&o.saveModel, "save-model", "", "write the trained model to this file")
	fs.StringVar(&o.loadModel, "load-model", "", "load a previously saved model instead of training")
	fs.BoolVar(&o.verbose, "v", false, "print the model and every report")
	fs.IntVar(&o.parallel, "parallel", 0, "worker-pool size for run collection (0 = EDDIE_PARALLELISM env or GOMAXPROCS)")
	fs.BoolVar(&o.showMetrics, "metrics", false, "attach the metrics layer to monitoring and print its JSON snapshot")
	fs.StringVar(&o.experiment, "experiment", "", `run a named experiment instead of train/monitor: "robustness"`)
	fs.StringVar(&o.outFile, "out", "BENCH_robustness.json", "experiment result JSON output path")
	fs.BoolVar(&o.short, "short", false, "experiment mode: scaled-down run counts")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace-event JSON file of every pipeline stage (load in Perfetto)")
	fs.StringVar(&o.serveAddr, "serve", "", `serve debug endpoints on this address (e.g. ":8080"): /debug/vars, /debug/pprof/*, /metrics, /eddie/last-alarm, /eddie/fleet`)
	fs.StringVar(&o.fleetAddr, "fleet", "", `run the fleet monitoring server on this address (e.g. ":9000"); requires -model-dir`)
	fs.StringVar(&o.coordAddr, "coord", "", `run the multi-node fleet coordinator on this address (e.g. ":9100"); requires -backends`)
	fs.StringVar(&o.backends, "backends", "", `coordinator mode: comma-separated fleet backend addresses (host:port,host:port,...)`)
	fs.StringVar(&o.modelDir, "model-dir", "", "fleet mode: directory of models saved with -save-model, one <workload>.json per workload")
	fs.IntVar(&o.maxSessions, "fleet-max-sessions", 0, fmt.Sprintf("fleet mode: concurrent device session bound (0 = derive from physical memory; %d on this node)", eddie.DefaultFleetMaxSessions()))
	fs.IntVar(&o.fleetShards, "fleet-shards", 0, "fleet mode: processor goroutines the detector work is multiplexed over (0 = worker-pool parallelism)")
	fs.DurationVar(&o.drainTimeout, "fleet-drain-timeout", 30*time.Second, "fleet mode: how long a SIGTERM drain may take before sessions are force-closed")
	fs.IntVar(&o.denoiseRank, "denoise-rank", 0, "SVD subspace denoising rank k (0 = disabled); applied between STFT and peak extraction in every pipeline and fleet session")
	fs.IntVar(&o.denoiseBlock, "denoise-block", 0, "denoising: sliding spectrogram block length in windows (0 = 32)")
	fs.IntVar(&o.denoiseStride, "denoise-stride", 0, "denoising: windows between subspace refactorizations (0 = block/4)")
	fs.BoolVar(&o.version, "version", false, "print version information and exit")
	fs.StringVar(&o.journalDir, "journal-dir", "", "fleet mode: write a durable alarm/event journal (JSONL) to this directory")
	fs.IntVar(&o.journalMaxMB, "journal-max-mb", 64, "fleet mode: rotate journal files at this size in MiB")
	fs.StringVar(&o.journalFsync, "journal-fsync", "interval", `fleet mode: journal durability policy: "always", "interval" or "never"`)
	fs.BoolVar(&o.adapt, "adapt", false, "enable the drift-adaptive reference layer: clean-judged windows slowly re-center per-region references (long-lived sessions under channel drift)")
	fs.Float64Var(&o.adaptRate, "adapt-rate", 0, fmt.Sprintf("adaptation blend rate per admitted update in (0, 1] (0 = %g)", eddie.DefaultAdaptRate))
	fs.IntVar(&o.adaptGuard, "adapt-guard", 0, fmt.Sprintf("contamination guard: consecutive clean windows required before updates are admitted (0 = %d)", eddie.DefaultAdaptMinCleanStreak))
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		err := fmt.Errorf("unexpected arguments: %v", fs.Args())
		fmt.Fprintln(stderr, "eddie:", err)
		return nil, err
	}
	return o, nil
}

// validate rejects nonsensical flag combinations up front, before any
// training or serving starts.
func (o *options) validate() error {
	if o.list || o.version {
		return nil
	}
	if o.fleetAddr == "" && o.coordAddr == "" && o.journalDir != "" {
		return errors.New("-journal-dir requires -fleet or -coord")
	}
	if o.coordAddr != "" && o.fleetAddr != "" {
		return errors.New("-coord and -fleet are mutually exclusive (run backends and the coordinator as separate processes)")
	}
	if o.coordAddr == "" && o.backends != "" {
		return errors.New("-backends requires -coord")
	}
	if o.coordAddr != "" {
		if o.backends == "" {
			return errors.New("-coord requires -backends (comma-separated fleet backend addresses)")
		}
		seen := map[string]bool{}
		for _, b := range o.backendList() {
			if b == "" {
				return errors.New("-backends has an empty address")
			}
			if seen[b] {
				return fmt.Errorf("-backends lists %s twice", b)
			}
			seen[b] = true
		}
	}
	switch o.journalFsync {
	case eddie.JournalFsyncAlways, eddie.JournalFsyncInterval, eddie.JournalFsyncNever:
	default:
		return fmt.Errorf("unknown -journal-fsync %q (want always, interval or never)", o.journalFsync)
	}
	if o.journalMaxMB < 1 {
		return fmt.Errorf("-journal-max-mb %d: need at least 1 MiB per journal file", o.journalMaxMB)
	}
	switch o.mode {
	case "iot", "sim":
	default:
		return fmt.Errorf("unknown mode %q (want iot or sim)", o.mode)
	}
	if o.denoiseRank == 0 && (o.denoiseBlock != 0 || o.denoiseStride != 0) {
		return errors.New("-denoise-block/-denoise-stride require -denoise-rank")
	}
	if !o.adapt && (o.adaptRate != 0 || o.adaptGuard != 0) {
		return errors.New("-adapt-rate/-adapt-guard require -adapt")
	}
	if !(o.adaptRate >= 0 && o.adaptRate <= 1) { // also rejects NaN
		return fmt.Errorf("-adapt-rate %v outside [0, 1] (0 = default %g)", o.adaptRate, eddie.DefaultAdaptRate)
	}
	if o.adaptGuard < 0 {
		return fmt.Errorf("-adapt-guard %d: negative clean-window guard", o.adaptGuard)
	}
	if err := o.denoise().Validate(); err != nil {
		return err
	}
	if o.experiment != "" {
		if o.experiment != "robustness" {
			return fmt.Errorf("unknown experiment %q (want robustness)", o.experiment)
		}
		return nil
	}
	switch o.attack {
	case "none", "burst", "inloop":
	default:
		return fmt.Errorf("unknown attack %q (want none, burst or inloop)", o.attack)
	}
	if o.burstSize < 1 {
		return fmt.Errorf("-burst-size %d: need at least one injected instruction", o.burstSize)
	}
	if o.instrs < 1 {
		return fmt.Errorf("-instrs %d: need at least one injected instruction per iteration", o.instrs)
	}
	if o.memOps < 0 || o.memOps > o.instrs {
		return fmt.Errorf("-memops %d outside [0, %d] (-instrs)", o.memOps, o.instrs)
	}
	if !(o.contamination >= 0 && o.contamination <= 1) { // also rejects NaN
		return fmt.Errorf("-contamination %v outside [0, 1]", o.contamination)
	}
	if o.nest < 0 {
		return fmt.Errorf("-nest %d: negative loop nest", o.nest)
	}
	if o.fleetAddr != "" {
		if o.modelDir == "" {
			return errors.New("-fleet requires -model-dir (train with -save-model first)")
		}
		if o.maxSessions < 0 {
			return fmt.Errorf("-fleet-max-sessions %d: negative session bound", o.maxSessions)
		}
		if o.fleetShards < 0 {
			return fmt.Errorf("-fleet-shards %d: negative shard count", o.fleetShards)
		}
		if o.drainTimeout <= 0 {
			return fmt.Errorf("-fleet-drain-timeout %v: need a positive drain budget", o.drainTimeout)
		}
		return nil
	}
	if o.loadModel == "" && o.trainRuns < 1 {
		return fmt.Errorf("-train %d: need at least one training run (or -load-model)", o.trainRuns)
	}
	if o.monitorRuns < 1 {
		return fmt.Errorf("-monitor %d: need at least one monitoring run", o.monitorRuns)
	}
	return nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is the testable entry point: parse, validate, dispatch.
func realMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		// parseArgs and the FlagSet have already written the diagnostics.
		return 2
	}
	if err := o.validate(); err != nil {
		fmt.Fprintln(stderr, "eddie:", err)
		return 2
	}
	eddie.SetParallelism(o.parallel)

	switch {
	case o.version:
		v, goVer := buildVersion()
		fmt.Fprintf(stdout, "eddie %s (%s)\n", v, goVer)
		return 0
	case o.list:
		for _, w := range eddie.Workloads() {
			fmt.Fprintln(stdout, w.Name)
		}
		return 0
	case o.experiment != "":
		if err := runExperiment(o, stdout); err != nil {
			fmt.Fprintln(stderr, "eddie:", err)
			return 1
		}
		return 0
	case o.fleetAddr != "":
		if err := runFleet(o, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "eddie:", err)
			return 1
		}
		return 0
	case o.coordAddr != "":
		if err := runCoord(o, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "eddie:", err)
			return 1
		}
		return 0
	default:
		if err := run(o, stdout); err != nil {
			fmt.Fprintln(stderr, "eddie:", err)
			return 1
		}
		return 0
	}
}

// buildVersion reports the binary's module version and Go toolchain
// from the build info stamped by the linker ("devel" outside a module
// build, e.g. in tests).
func buildVersion() (version, goVersion string) {
	version, goVersion = "devel", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			version = bi.Main.Version
		}
		goVersion = bi.GoVersion
	}
	return version, goVersion
}

// publishBuildInfo exports the standard eddie_build_info metric (a
// constant gauge of 1 whose labels carry the version) on the registry;
// the Prometheus writer adds the eddie_ namespace prefix.
func publishBuildInfo(reg *eddie.MetricsRegistry) {
	v, goVer := buildVersion()
	reg.SetInfo("build_info", map[string]string{"version": v, "go": goVer})
}

// pipelineConfig resolves -mode (validate already vetted it).
func pipelineConfig(mode string) eddie.PipelineConfig {
	if mode == "sim" {
		return eddie.SimulatorPipeline()
	}
	return eddie.IoTPipeline()
}

// openJournal opens the -journal-dir journal and announces it; with no
// -journal-dir it returns a nil journal, which every user accepts.
// events names what is journaled in the announcement.
func openJournal(o *options, stdout io.Writer, events string) (*eddie.AlarmJournal, error) {
	if o.journalDir == "" {
		return nil, nil
	}
	journal, err := eddie.OpenAlarmJournal(eddie.AlarmJournalConfig{
		Dir:          o.journalDir,
		MaxFileBytes: int64(o.journalMaxMB) << 20,
		Fsync:        o.journalFsync,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "journaling %s to %s (fsync %s, rotate at %d MiB)\n",
		events, o.journalDir, o.journalFsync, o.journalMaxMB)
	return journal, nil
}

// serveDebug starts the -serve HTTP endpoints in the background,
// exposing reg on /metrics and /debug/vars plus whatever else state
// holds; endpoints lists them in the announcement.
func serveDebug(addr string, reg *eddie.MetricsRegistry, state eddie.ServeState, endpoints string, stdout, stderr io.Writer) error {
	reg.Publish("eddie") // /debug/vars; idempotent
	state.Metrics = reg
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := eddie.NewServeMux(state)
	fmt.Fprintf(stdout, "serving debug endpoints on http://%s (%s)\n", ln.Addr(), endpoints)
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintln(stderr, "eddie: serve:", err)
		}
	}()
	return nil
}

// serveUntilSignal runs serve until it fails or SIGINT/SIGTERM arrives.
// On a signal it prints "received <signal>, <stopping>", runs shutdown
// under the -fleet-drain-timeout budget (a failure is reported as
// "<step> incomplete"), waits for serve to return and prints stopped.
func serveUntilSignal(o *options, stdout, stderr io.Writer, serve func() error, shutdown func(context.Context) error, stopping, step, stopped string) error {
	serveDone := make(chan error, 1)
	go func() { serveDone <- serve() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(stdout, "received %v, %s\n", s, stopping)
		ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
		defer cancel()
		if err := shutdown(ctx); err != nil {
			fmt.Fprintf(stderr, "eddie: %s incomplete: %v\n", step, err)
		}
		<-serveDone
		fmt.Fprintln(stdout, stopped)
		return nil
	case err := <-serveDone:
		return err
	}
}

// runFleet runs the long-lived fleet monitoring server until SIGINT or
// SIGTERM, then drains gracefully.
func runFleet(o *options, stdout, stderr io.Writer) error {
	cfg := pipelineConfig(o.mode)
	reg := eddie.NewDetectorMetrics().Reg
	publishBuildInfo(reg)

	// The observability plane: durable journal (opt-in via -journal-dir),
	// live alarm streaming and SLO burn-rate health (always on — both are
	// nearly free and nil-safe inside the server).
	journal, err := openJournal(o, stdout, "alarms")
	if err != nil {
		return err
	}
	defer journal.Close()
	alarms := eddie.NewAlarmStream()
	slo := eddie.NewSLOTracker(eddie.SLOConfig{})

	mc := eddie.DefaultMonitorConfig()
	mc.Adapt = o.adaptConfig()
	if mc.Adapt.Enabled {
		fmt.Fprintln(stdout, "drift adaptation enabled for all sessions")
	}
	srv, err := eddie.NewFleetServer(eddie.FleetConfig{
		Models: eddie.NewFleetDirModels(o.modelDir),
		Stream: eddie.StreamConfig{
			STFT:    cfg.STFT,
			Peaks:   cfg.Peaks,
			Denoise: o.denoise(),
			Monitor: mc,
		},
		MaxSessions: o.maxSessions,
		Shards:      o.fleetShards,
		Registry:    reg,
		Journal:     journal,
		Alarms:      alarms,
		SLO:         slo,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stdout, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	if o.serveAddr != "" {
		state := eddie.ServeState{Fleet: srv, Health: slo, Alarms: alarms}
		if err := serveDebug(o.serveAddr, reg, state, "/metrics /eddie/fleet /eddie/healthz /eddie/alarms", stdout, stderr); err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", o.fleetAddr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fleet server on %s, models from %s (%s pipeline); SIGTERM drains\n",
		ln.Addr(), o.modelDir, o.mode)
	return serveUntilSignal(o, stdout, stderr,
		func() error { return srv.Serve(ln) }, srv.Shutdown,
		fmt.Sprintf("draining (budget %v)...", o.drainTimeout), "drain", "fleet server stopped")
}

// runCoord runs the multi-node fleet coordinator until SIGINT or
// SIGTERM: consistent-hash device sharding across the -backends fleet,
// health probes, and re-homing when a backend dies.
func runCoord(o *options, stdout, stderr io.Writer) error {
	reg := eddie.NewMetricsRegistry()
	publishBuildInfo(reg)

	journal, err := openJournal(o, stdout, "coordinator events")
	if err != nil {
		return err
	}
	defer journal.Close()

	c, err := eddie.NewCoordinator(eddie.CoordinatorConfig{
		Backends: o.backendList(),
		Registry: reg,
		Journal:  journal,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stdout, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	if o.serveAddr != "" {
		// The cross-backend aggregated session listing.
		state := eddie.ServeState{Fleet: c}
		if err := serveDebug(o.serveAddr, reg, state, "/metrics /eddie/fleet", stdout, stderr); err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", o.coordAddr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fleet coordinator on %s, %d backends: %s; SIGTERM drains\n",
		ln.Addr(), len(o.backendList()), o.backends)
	return serveUntilSignal(o, stdout, stderr,
		func() error { return c.Serve(ln) }, c.Shutdown,
		"stopping...", "shutdown", "fleet coordinator stopped")
}

// runExperiment dispatches -experiment and writes the machine-readable
// result JSON.
func runExperiment(o *options, stdout io.Writer) error {
	env := experiments.NewEnv(o.short)
	var dm *eddie.DetectorMetrics
	if o.showMetrics {
		// One concurrency-safe bundle shared by every monitor the
		// experiment builds: the counters aggregate across the sweep.
		dm = eddie.NewDetectorMetrics()
		env.MonitorCfg.Stats = dm
	}
	res, err := experiments.Robustness(env, stdout)
	if err != nil {
		return err
	}
	if dm != nil {
		fmt.Fprintln(stdout, "metrics:")
		fmt.Fprintln(stdout, dm.Reg)
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.outFile, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote", o.outFile)
	return nil
}

func run(o *options, stdout io.Writer) error {
	w, err := eddie.WorkloadByName(o.workload)
	if err != nil {
		return err
	}
	cfg := pipelineConfig(o.mode)
	cfg.Denoise = o.denoise()
	if cfg.Denoise.Enabled() {
		dn := cfg.Denoise.WithDefaults()
		fmt.Fprintf(stdout, "denoising: rank %d, block %d, stride %d\n",
			dn.Rank, dn.Block, dn.Stride)
	}

	// Observability: a span recorder when a trace sink exists, a flight
	// recorder whenever we serve (so /eddie/last-alarm has evidence).
	var rec *eddie.TraceRecorder
	if o.traceOut != "" || o.serveAddr != "" {
		rec = eddie.NewTraceRecorder()
		cfg.Trace = rec
	}
	var flight *eddie.FlightRecorder
	if o.serveAddr != "" || o.verbose {
		flight = eddie.NewFlightRecorder(0)
	}
	var dm *eddie.DetectorMetrics
	if o.showMetrics || o.serveAddr != "" {
		// One bundle across all monitored runs: the counters aggregate.
		dm = eddie.NewDetectorMetrics()
	}
	if o.serveAddr != "" {
		publishBuildInfo(dm.Reg)
		state := eddie.ServeState{Flight: flight, Trace: rec}
		if err := serveDebug(o.serveAddr, dm.Reg, state, "/debug/vars /debug/pprof/ /metrics /eddie/last-alarm", stdout, os.Stderr); err != nil {
			return err
		}
	}

	var model *eddie.Model
	var machine *eddie.Machine
	if o.loadModel != "" {
		machine, err = eddie.BuildMachine(w)
		if err != nil {
			return err
		}
		model, err = eddie.LoadModel(o.loadModel, machine)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded model for %s from %s\n", model.ProgramName, o.loadModel)
	} else {
		fmt.Fprintf(stdout, "training %s on %d runs (%s pipeline)...\n", o.workload, o.trainRuns, o.mode)
		model, machine, err = eddie.Train(w, cfg, o.trainRuns, eddie.DefaultTrainConfig())
		if err != nil {
			return err
		}
	}
	if o.saveModel != "" {
		if err := eddie.SaveModel(model, o.saveModel); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "model saved to", o.saveModel)
	}
	if o.verbose {
		fmt.Fprintln(stdout, model)
	}
	if o.nest >= len(machine.Nests) {
		return fmt.Errorf("workload %s has %d loop nests; -nest %d out of range", o.workload, len(machine.Nests), o.nest)
	}
	var injector eddie.Injector
	switch o.attack {
	case "none":
	case "burst":
		injector = eddie.NewBurstInjector(machine, o.nest, o.burstSize)
	case "inloop":
		// Target the nest's hottest inner loop (profiled), like a real
		// attacker maximizing executed work per unit time.
		headers, err := eddie.HotLoopHeaders(w, machine)
		if err != nil {
			return err
		}
		injector = eddie.NewInLoopInjectorAt(headers[o.nest], o.instrs, o.memOps, o.contamination, 1)
	}
	if injector != nil {
		fmt.Fprintln(stdout, "attack:", injector.Description())
	}

	mc := eddie.DefaultMonitorConfig()
	mc.Stats = dm
	mc.Trace = rec
	mc.Flight = flight
	mc.Adapt = o.adaptConfig()
	agg := &eddie.Metrics{}
	for i := 0; i < o.monitorRuns; i++ {
		runIdx := 1000 + i*7
		collected, err := eddie.CollectRun(w, machine, cfg, runIdx, injector)
		if err != nil {
			return err
		}
		mon, err := eddie.MonitorRun(model, collected, mc)
		if err != nil {
			return err
		}
		m, err := eddie.Evaluate(model, cfg, collected, mon)
		if err != nil {
			return err
		}
		agg.Merge(m)
		fmt.Fprintf(stdout, "run %d: %d windows, %d reports, %s\n",
			runIdx, len(collected.STS), len(mon.Reports), m)
		if o.verbose {
			for _, r := range mon.Reports {
				fmt.Fprintf(stdout, "  report at window %d (t=%.3f ms, region %v)\n",
					r.Window, r.TimeSec*1e3, r.Region)
			}
		}
	}
	fmt.Fprintf(stdout, "aggregate over %d runs: %s\n", o.monitorRuns, agg)
	if o.showMetrics && dm != nil {
		fmt.Fprintln(stdout, "metrics:")
		fmt.Fprintln(stdout, dm.Reg)
	}
	if flight != nil {
		if a := flight.LastAlarm(); a != nil {
			fmt.Fprintf(stdout, "last alarm: window %d (t=%.3f ms, region %d, streak %d), rejected ranks %v\n",
				a.Window, a.TimeSec*1e3, a.Region, a.Streak, a.RejectedRanks)
		} else {
			fmt.Fprintln(stdout, "last alarm: none")
		}
	}
	if o.traceOut != "" && rec != nil {
		if err := rec.WriteChromeTraceFile(o.traceOut); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d trace events to %s (open in Perfetto / chrome://tracing)\n", rec.Len(), o.traceOut)
	}
	if o.serveAddr != "" {
		fmt.Fprintln(stdout, "monitoring done; still serving (Ctrl-C to exit)")
		select {}
	}
	return nil
}
