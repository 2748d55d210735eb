package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"eddie/internal/core"
	"eddie/internal/dsp"
	"eddie/internal/fleet"
	"eddie/internal/metrics"
	"eddie/internal/obs"
	"eddie/internal/stream"
	"eddie/internal/synthbench"
)

// fleet_alarm has two devices streaming to the fleet server over
// localhost TCP, one connection each. The load is open loop on a fixed
// schedule at 0.25 Msamples/s per session (an eighth of the 2 MHz real
// time of synthbench.FleetSTFT, far below one shard's capacity),
// driven by one generator goroutine per session. Frames hold 2048
// samples; each episode is 8 clean frames of synthbench.Signal (shift
// 1) followed by 4 anomalous ones (shift 1.05), as BENCH_fleet does.
// The server is configured the way `eddie -fleet -journal-dir`
// configures it — flight recorders, alarm stream, SLO tracker and a
// journal with the default interval fsync — on one shard.
//
// Why this workload: it is the only one that goes through fleet wire
// decode, shard queueing, alarm publish (the obs journal and SSE) and
// the report write. Anomalous frames cost about 2.4× as much to decide
// as clean ones, so the alarm path dominates latency; the single-region
// synthetic model keeps region logic out of it. It bypasses sim, emsim,
// impair, the denoiser and the adapt layer.

const (
	fleetFrame         = 2048   // samples per frame
	fleetClean         = 8      // clean frames per episode
	fleetAnom          = 4      // anomalous frames per episode
	fleetRate          = 0.25e6 // offered samples/s per session
	fleetSessions      = 2      // devices, one connection each
	fleetPool          = 4      // distinct episodes per session, cycled
	fleetBlockEpisodes = 4      // episodes between calibration gaps
	fleetGap           = 60e-3  // idle gap per block, seconds
	fleetWorkload      = "synthfleet"
	fleetDeliveredMin  = 0.99    // delivered ÷ offered below this fails
	fleetTrainSamples  = 200_000 // samples per synthetic training run
)

// fleetPeaks is BENCH_fleet's peak configuration.
func fleetPeaks() dsp.PeakConfig {
	p := dsp.DefaultPeakConfig()
	p.MinEnergyFraction = 0.02
	p.MinBin = 3
	return p
}

// fleetEnv is one set-up: model, journal, running server and the open
// sessions.
type fleetEnv struct {
	model   *core.Model
	dir     string
	journal *obs.Journal
	srv     *fleet.Server
	reg     *metrics.Registry
	serve   chan error
	conns   []*fleetConn
}

// fleetConn is one device connection past its handshake.
type fleetConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// fleetSchedule is the fixed open-loop schedule both runs share.
type fleetSchedule struct {
	frames  int           // frames per session
	blocks  int           // blocks of fleetBlockEpisodes, each followed by a gap
	period  time.Duration // per-session frame period
	offsets []time.Duration
}

// due returns frame f's send time of session s, relative to the start.
func (sc *fleetSchedule) due(s, f int) time.Duration {
	block := f / (fleetBlockEpisodes * (fleetClean + fleetAnom))
	return sc.offsets[s] + time.Duration(f)*sc.period + time.Duration(block)*time.Duration(fleetGap*float64(time.Second))
}

// gapStart returns when block b's trailing gap begins, relative to the
// start.
func (sc *fleetSchedule) gapStart(b int) time.Duration {
	last := min((b+1)*fleetBlockEpisodes*(fleetClean+fleetAnom), sc.frames) - 1
	return sc.due(0, last) + sc.period
}

// fleetInputs are the generator's pre-encoded frames per session:
// fleetPool episodes of clean then anomalous frames, and the same
// samples decoded for the in-process reference.
type fleetInputs struct {
	payload [][][]byte // [session][pool frame]
	samples [][][]float64
	bytes   uint64
}

func fleetGenerate(seed int64, stft dsp.STFTConfig) *fleetInputs {
	in := &fleetInputs{}
	per := fleetClean + fleetAnom
	for s := 0; s < fleetSessions; s++ {
		var pl [][]byte
		var sm [][]float64
		for e := 0; e < fleetPool; e++ {
			clean := synthbench.Signal(fleetClean*fleetFrame, stft, seedFor(seed, int64(4000+16*s+2*e)), 1)
			anom := synthbench.Signal(fleetAnom*fleetFrame, stft, seedFor(seed, int64(4001+16*s+2*e)), 1.05)
			all := append(clean, anom...)
			for f := 0; f < per; f++ {
				chunk := all[f*fleetFrame : (f+1)*fleetFrame]
				sm = append(sm, chunk)
				pl = append(pl, fleet.EncodeSamples(chunk))
				in.bytes += uint64(16 * fleetFrame)
			}
		}
		in.payload = append(in.payload, pl)
		in.samples = append(in.samples, sm)
	}
	return in
}

// frameOf maps schedule frame f onto its pool frame.
func frameOf(f int) int { return f % (fleetPool * (fleetClean + fleetAnom)) }

// anomalous reports whether schedule frame f carries anomalous samples.
func anomalous(f int) bool { return f%(fleetClean+fleetAnom) >= fleetClean }

// streamTemplate is the server's per-session detector template, also
// used for the in-process reference.
func streamTemplate(stft dsp.STFTConfig) stream.Config {
	return stream.Config{STFT: stft, Peaks: fleetPeaks(), Monitor: core.DefaultMonitorConfig()}
}

// fleetSetup trains the synthetic model, opens the journal, starts the
// server on one shard and opens both sessions.
func fleetSetup(stft dsp.STFTConfig, rec *obs.Recorder) (*fleetEnv, error) {
	model, _, err := synthbench.TrainSignalModel(4, fleetTrainSamples, stft, fleetPeaks())
	if err != nil {
		return nil, err
	}
	env := &fleetEnv{model: model, serve: make(chan error, 1)}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	env.dir, err = os.MkdirTemp(".bench_build", "perfbench-journal-")
	if err != nil {
		return nil, err
	}
	env.journal, err = obs.OpenJournal(obs.JournalConfig{Dir: env.dir})
	if err != nil {
		env.remove()
		return nil, err
	}
	tmpl := streamTemplate(stft)
	tmpl.Trace = rec
	env.srv, err = fleet.NewServer(fleet.Config{
		Models:   fleet.StaticModels{fleetWorkload: model},
		Stream:   tmpl,
		Shards:   1,
		Registry: metrics.NewDetector().Reg,
		Journal:  env.journal,
		Alarms:   obs.NewAlarmStream(),
		SLO:      obs.NewSLOTracker(obs.SLOConfig{}),
	})
	if err != nil {
		env.close()
		env.remove()
		return nil, err
	}
	env.reg = env.srv.Registry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.close()
		env.remove()
		return nil, err
	}
	go func() { env.serve <- env.srv.Serve(ln) }()
	for s := 0; s < fleetSessions; s++ {
		c, err := fleetHandshake(ln.Addr().String(), s)
		if err != nil {
			env.close()
			env.remove()
			return nil, err
		}
		env.conns = append(env.conns, c)
	}
	return env, nil
}

// fleetHandshake dials the server and completes the hello/welcome.
func fleetHandshake(addr string, s int) (*fleetConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	c := &fleetConn{conn: conn, br: bufio.NewReaderSize(conn, 1<<16), bw: bufio.NewWriterSize(conn, 1<<16)}
	hello, err := json.Marshal(fleet.Hello{Device: fmt.Sprintf("dev-%d", s), Workload: fleetWorkload, DisableDCBlock: true})
	if err == nil {
		err = fleet.WriteFrame(c.bw, fleet.FrameHello, hello)
	}
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	typ, payload, err := fleet.ReadFrame(c.br, fleet.DefaultMaxFrameBytes)
	if err != nil || typ != fleet.FrameWelcome {
		conn.Close()
		return nil, fmt.Errorf("handshake: frame 0x%02x %q: %v", typ, payload, err)
	}
	return c, nil
}

// close tears the set-up down — connections, server, journal — and
// waits for the server's goroutines to end. The journal directory stays
// for reading back until remove.
func (env *fleetEnv) close() {
	for _, c := range env.conns {
		c.conn.Close()
	}
	if env.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := env.srv.Shutdown(ctx); err != nil {
			env.srv.Close()
		}
		cancel()
		<-env.serve
	}
	if env.journal != nil {
		env.journal.Close()
	}
}

// remove deletes the set-up's journal directory.
func (env *fleetEnv) remove() {
	if env.dir != "" {
		os.RemoveAll(env.dir)
	}
}

// shutdown closes env and reads its journal back, returning the number
// of journaled events, alarm events and bytes, then removes it.
func (env *fleetEnv) shutdown() (events, alarms, bytes int64, err error) {
	// Let the server retire the sessions first: Shutdown journals a
	// drain event for every session still open, which would make the
	// event count depend on how fast the last summary went out.
	for t0 := time.Now(); time.Since(t0) < 10*time.Second; time.Sleep(time.Millisecond) {
		if active, _ := env.srv.ActiveSessions(); active == 0 {
			break
		}
	}
	env.close()
	defer env.remove()
	j, err := obs.RecoverJournal(env.dir)
	if err != nil {
		return 0, 0, 0, err
	}
	bytes, err = dirBytes(env.dir)
	return int64(len(j.Events)), int64(len(j.Alarms)), bytes, err
}

// fleetReport is one report with its arrival time.
type fleetReport struct {
	at time.Time
	r  fleet.Report
}

// sessionResult is what one session's generator and reader saw.
type sessionResult struct {
	late      []time.Duration // per frame: write start − due
	writes    []time.Duration // per frame: write duration
	lastWrite time.Time
	genErr    error // the generator's; the reader's is readErr
	reports   []fleetReport
	summary   fleet.Summary
	readErr   error
}

// fleetRunOut is one scheduled run's outcome.
type fleetRunOut struct {
	start    time.Time
	sessions []*sessionResult
	// calib holds the calibration slices taken in the gaps.
	calib    []float64
	busy     time.Duration // shard busy time
	liveHeap uint64
	alloc    uint64
	// Journal contents read back after shutdown: every event of the
	// set-up's life, the alarm events, and the files' bytes.
	journalEvents, journalAlarms, journalBytes int64
}

// fleetRun drives the whole schedule against env: one generator and one
// reader goroutine per session, calibration slices in every gap.
func fleetRun(env *fleetEnv, in *fleetInputs, sc *fleetSchedule) *fleetRunOut {
	out := &fleetRunOut{sessions: make([]*sessionResult, fleetSessions)}
	turn := env.reg.LogHist("fleet_turn_ns/s00")
	busy0 := turn.Sum()
	a0 := allocBytes()
	out.start = time.Now().Add(50 * time.Millisecond)
	// A stalled server fails the run instead of hanging it.
	deadline := out.start.Add(sc.due(fleetSessions-1, sc.frames-1) + time.Minute)
	for _, c := range env.conns {
		c.conn.SetDeadline(deadline)
	}
	var wg sync.WaitGroup
	for s := 0; s < fleetSessions; s++ {
		res := &sessionResult{}
		out.sessions[s] = res
		c := env.conns[s]
		wg.Add(2)
		go func(s int) {
			defer wg.Done()
			readReports(c, res)
		}(s)
		go func(s int) {
			defer wg.Done()
			generate(c, in.payload[s], sc, s, out.start, res)
		}(s)
	}
	for b := 0; b < sc.blocks; b++ {
		time.Sleep(time.Until(out.start.Add(sc.gapStart(b) + 30*time.Millisecond)))
		if b == 0 {
			out.liveHeap = heapAfterGC()
		}
		out.calib = append(out.calib, calibSlice())
	}
	wg.Wait()
	out.alloc = allocBytes() - a0
	out.busy = time.Duration(turn.Sum() - busy0)
	return out
}

// generate writes session s's frames at their due times, then says bye.
func generate(c *fleetConn, payload [][]byte, sc *fleetSchedule, s int, start time.Time, res *sessionResult) {
	res.late = make([]time.Duration, 0, sc.frames)
	res.writes = make([]time.Duration, 0, sc.frames)
	for f := 0; f < sc.frames; f++ {
		due := start.Add(sc.due(s, f))
		time.Sleep(time.Until(due))
		t0 := time.Now()
		err := fleet.WriteFrame(c.bw, fleet.FrameSamples, payload[frameOf(f)])
		if err == nil {
			err = c.bw.Flush()
		}
		t1 := time.Now()
		res.late = append(res.late, t0.Sub(due))
		res.writes = append(res.writes, t1.Sub(t0))
		if err != nil {
			res.genErr = fmt.Errorf("frame %d: %w", f, err)
			c.conn.Close()
			return
		}
	}
	res.lastWrite = time.Now()
	if err := fleet.WriteFrame(c.bw, fleet.FrameBye, nil); err == nil {
		c.bw.Flush()
	}
}

// readReports timestamps every report on arrival until the summary.
func readReports(c *fleetConn, res *sessionResult) {
	for {
		typ, payload, err := fleet.ReadFrame(c.br, fleet.DefaultMaxFrameBytes)
		at := time.Now()
		if err != nil {
			res.readErr = fmt.Errorf("reading: %w", err)
			return
		}
		switch typ {
		case fleet.FrameReport:
			var r fleet.Report
			if err := json.Unmarshal(payload, &r); err != nil {
				res.readErr = err
				return
			}
			res.reports = append(res.reports, fleetReport{at: at, r: r})
		case fleet.FrameSummary:
			res.readErr = json.Unmarshal(payload, &res.summary)
			return
		default:
			res.readErr = fmt.Errorf("unexpected frame 0x%02x %q", typ, payload)
			return
		}
	}
}

// fleetReference feeds session s's scheduled samples, frame by frame,
// to an in-process detector with the server's configuration and
// returns its report windows and ground-truth counts.
func fleetReference(model *core.Model, stft dsp.STFTConfig, in *fleetInputs, sc *fleetSchedule, s int) ([]int, *metrics.Detector, error) {
	cfg := streamTemplate(stft)
	cfg.DisableDCBlock = true
	cfg.MaxHistoryWindows = 4096
	m := metrics.NewDetector()
	cfg.Metrics = m
	ws, hop := stft.WindowSize, stft.HopSize
	cfg.GroundTruth = func(w int) bool {
		// A window is anomalous when any of its samples is.
		first, last := w*hop/fleetFrame, (w*hop+ws-1)/fleetFrame
		for f := first; f <= last; f++ {
			if anomalous(f) {
				return true
			}
		}
		return false
	}
	det, err := stream.NewDetector(model, cfg)
	if err != nil {
		return nil, nil, err
	}
	var windows []int
	for f := 0; f < sc.frames; f++ {
		for _, r := range det.Feed(in.samples[s][frameOf(f)]) {
			windows = append(windows, r.Window)
		}
	}
	return windows, m, nil
}

func runFleetAlarm(rc *runCtx) error {
	// Socket wake-ups, timer slack and journal I/O do not follow the
	// host's fast phases as the calibration slice does.
	rc.calibExp = map[string]float64{
		"setup_s":                0.7,
		"throughput_msps":        0.7,
		"verdict_latency_p50_ms": 0.7,
		"verdict_latency_p90_ms": 0.7,
	}
	stft := synthbench.FleetSTFT()
	blocks := int(rc.seconds / (float64(fleetBlockEpisodes*(fleetClean+fleetAnom)*fleetFrame)/fleetRate + fleetGap))
	if blocks < 1 {
		blocks = 1
	}
	sc := &fleetSchedule{
		frames: blocks * fleetBlockEpisodes * (fleetClean + fleetAnom),
		blocks: blocks,
		period: time.Duration(float64(fleetFrame) / fleetRate * float64(time.Second)),
	}
	if rc.small {
		sc.frames, sc.blocks = 6*(fleetClean+fleetAnom), 1
	}
	// The second session runs half a period behind the first, so their
	// frames interleave instead of arriving together.
	for s := 0; s < fleetSessions; s++ {
		sc.offsets = append(sc.offsets, time.Duration(s)*sc.period/fleetSessions)
	}
	in := fleetGenerate(rc.seed, stft)

	// Nine set-ups, not three: each takes a fraction of a second, so the
	// median needs more of them (and of the calibration slices after
	// them) to hold still.
	var env *fleetEnv
	var setups []float64
	for i := 0; i < 9; i++ {
		if env != nil {
			env.close()
			env.remove()
		}
		d, err := rc.calib.step(func() (err error) {
			env, err = fleetSetup(stft, nil)
			return err
		})
		if err != nil {
			return err
		}
		setups = append(setups, d)
	}
	rc.setTiming("setup_s", median(setups), false)

	out := fleetRun(env, in, sc)
	var err error
	out.journalEvents, out.journalAlarms, out.journalBytes, err = env.shutdown()
	if err != nil {
		return err
	}
	rc.calib.slices = append(rc.calib.slices, out.calib...)
	if err := rc.checkFleet(env, in, sc, stft, out); err != nil {
		return err
	}
	if !rc.traced {
		return nil
	}

	// Traced run: the same schedule against a server whose detectors
	// record their stage spans.
	rec := obs.NewRecorder()
	tenv, err := fleetSetup(stft, rec)
	if err != nil {
		return err
	}
	tout := fleetRun(tenv, in, sc)
	tout.journalEvents, tout.journalAlarms, tout.journalBytes, err = tenv.shutdown()
	if err != nil {
		return err
	}
	rc.calib.slices = append(rc.calib.slices, tout.calib...)
	// Check the traced run like the untraced one, keeping the untraced
	// run's metrics: the traced run only contributes its spans.
	e2e, layer, counts := rc.e2e, rc.layer, rc.counts
	rc.e2e, rc.layer, rc.counts = map[string]float64{}, map[string]float64{}, map[string]int64{}
	err = rc.checkFleet(tenv, in, sc, stft, tout)
	tracedCounts := rc.counts
	rc.e2e, rc.layer, rc.counts = e2e, layer, counts
	if err != nil {
		return err
	}
	if fmt.Sprint(tracedCounts) != fmt.Sprint(counts) {
		rc.fail(sc.frames*fleetSessions, "traced run counts %v != untraced %v", tracedCounts, counts)
	}
	spans, n, err := recorderSpans(rec)
	if err != nil {
		return err
	}
	windows := float64(n["monitor/observe"])
	us := func(k string) float64 { return float64(spans[k].Nanoseconds()) / 1e3 / windows }
	rc.layer["dsp.stft_us_per_window"] = us("stream/stft")
	rc.layer["dsp.peaks_us_per_window"] = us("stream/peaks")
	rc.layer["core.observe_us_per_window"] = us("monitor/observe")
	rc.layer["bench.trace_overhead_pct"] = 100 * (tout.busy.Seconds()/out.busy.Seconds() - 1)
	var writes []float64
	for _, s := range tout.sessions {
		for _, d := range s.writes {
			writes = append(writes, float64(d.Nanoseconds())/1e3)
		}
	}
	rc.layer["gen.write_us_p50"] = quantile(writes, 0.5)
	return nil
}

// checkFleet verifies one scheduled run and records its metrics: every
// session's reports must match the in-process reference window for
// window, the server's summary must account for every sample, and the
// delivered rate must keep up with the offered one.
func (rc *runCtx) checkFleet(env *fleetEnv, in *fleetInputs, sc *fleetSchedule, stft dsp.STFTConfig, out *fleetRunOut) error {
	ws, hop := stft.WindowSize, stft.HopSize
	var latMs, lateMs []float64
	// blockLatMs holds the alarm latencies of each schedule block, both
	// sessions together.
	blockFrames := fleetBlockEpisodes * (fleetClean + fleetAnom)
	blockLatMs := make([][]float64, (sc.frames+blockFrames-1)/blockFrames)
	var samples, reports, attributed int64
	var tp, tn, windows int64
	episodes := int64(sc.frames / (fleetClean + fleetAnom))
	var detected int64
	var offered, delivered float64
	for s, res := range out.sessions {
		rc.attempted += sc.frames
		if err := errors.Join(res.genErr, res.readErr); err != nil {
			rc.fail(sc.frames, "session %d: %v", s, err)
			continue
		}
		want, m, err := fleetReference(env.model, stft, in, sc, s)
		if err != nil {
			return err
		}
		got := make([]int, len(res.reports))
		for i, r := range res.reports {
			got[i] = r.r.Window
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			rc.fail(sc.frames, "session %d: server report windows %v != reference %v", s, got, want)
		}
		sent := int64(sc.frames * fleetFrame)
		if res.summary.Samples != sent || res.summary.Reports != len(res.reports) {
			rc.fail(sc.frames, "session %d: summary %+v for %d samples and %d reports", s, res.summary, sent, len(res.reports))
		}
		samples += sent
		reports += int64(len(res.reports))
		tp += m.TruePos.Value()
		tn += m.TrueNeg.Value()
		windows += m.Windows.Value()
		seen := map[int]bool{}
		for _, r := range res.reports {
			lastFrame := (r.r.Window*hop + ws - 1) / fleetFrame
			lat := float64(r.at.Sub(out.start.Add(sc.due(s, lastFrame))).Nanoseconds()) / 1e6
			latMs = append(latMs, lat)
			blockLatMs[lastFrame/blockFrames] = append(blockLatMs[lastFrame/blockFrames], lat)
			firstFrame := r.r.Window * hop / fleetFrame
			if ep := lastFrame / (fleetClean + fleetAnom); anomalous(lastFrame) || anomalous(firstFrame) {
				attributed++
				if !seen[ep] {
					seen[ep] = true
					detected++
				}
			}
		}
		for _, d := range res.late {
			lateMs = append(lateMs, float64(d.Nanoseconds())/1e6)
		}
		span := sc.due(s, sc.frames-1) - sc.due(s, 0) + sc.period
		offered += float64(sent) / span.Seconds()
		delivered += float64(sent) / (res.lastWrite.Sub(out.start.Add(sc.due(s, 0))) + sc.period).Seconds()
	}
	if delivered < fleetDeliveredMin*offered {
		rc.fail(rc.attempted, "delivered %.4f Msamples/s < offered %.4f: the generator fell behind", delivered/1e6, offered/1e6)
	}
	if len(latMs) < 10 {
		return fmt.Errorf("only %d alarms", len(latMs))
	}
	verdict := env.reg.LogHist("fleet_frame_to_verdict_ns/s00")
	rc.setTiming("throughput_msps", float64(samples)/out.busy.Seconds()/1e6, true)
	rc.setTiming("verdict_latency_p50_ms", blockQuantile(blockLatMs, 0.5), false)
	rc.setTiming("verdict_latency_p90_ms", blockQuantile(blockLatMs, 0.9), false)
	rc.e2e["accuracy_pct"] = 100 * float64(tp+tn) / float64(windows)
	rc.e2e["detect_pct"] = 100 * float64(detected) / float64(episodes*fleetSessions)
	rc.e2e["alloc_b_per_sample"] = float64(out.alloc) / float64(samples)
	rc.e2e["live_heap_mb"] = float64(out.liveHeap-in.bytes) / (1 << 20)
	rc.layer["verdict.false_alarm_pct"] = 100 * float64(reports-attributed) / float64(reports)
	rc.layer["verdict.fp_pct"] = 100 * float64(windows-tp-tn) / float64(windows)
	rc.layer["fleet.alarm_latency_p99_ms"] = quantile(latMs, 0.99)
	rc.layer["fleet.frame_to_verdict_p50_ms"] = float64(verdict.Quantile(0.5)) / 1e6
	rc.layer["fleet.frame_to_verdict_p99_ms"] = float64(verdict.Quantile(0.99)) / 1e6
	rc.layer["fleet.turn_us_p50"] = float64(env.reg.LogHist("fleet_turn_ns/s00").Quantile(0.5)) / 1e3
	rc.layer["fleet.queue_depth_p99"] = float64(env.reg.LogHist("fleet_turn_queue_depth/s00").Quantile(0.99))
	rc.layer["fleet.backpressure_stalls"] = float64(env.reg.Counter("fleet_backpressure_stalls").Value())
	rc.layer["gen.late_p50_ms"] = quantile(lateMs, 0.5)
	rc.layer["gen.late_p99_ms"] = quantile(lateMs, 0.99)
	rc.layer["fleet.unaccounted_ms_p50"] = quantile(latMs, 0.5) - quantile(lateMs, 0.5) - rc.layer["fleet.frame_to_verdict_p50_ms"]
	rc.layer["gen.offered_msps"] = offered / 1e6
	rc.layer["gen.delivered_msps"] = delivered / 1e6
	win := env.reg.LogHist("window_process_ns")
	rc.layer["stream.window_us_p50"] = float64(win.Quantile(0.5)) / 1e3
	rc.layer["stream.window_us_p99"] = float64(win.Quantile(0.99)) / 1e3
	ks := env.reg.Counter("ks_tests").Value()
	rc.layer["core.ks_tests_per_window"] = float64(ks) / float64(windows)
	if out.journalAlarms != reports {
		rc.fail(int(reports), "journal holds %d alarms for %d reports", out.journalAlarms, reports)
	}
	rc.layer["obs.journal_events"] = float64(out.journalEvents)
	rc.layer["obs.journal_bytes_per_alarm"] = float64(out.journalBytes) / float64(reports)
	rc.counts["run.Windows"] = windows
	rc.counts["run.TruePos"] = tp
	rc.counts["run.TrueNeg"] = tn
	rc.counts["run.Reports"] = reports
	rc.counts["run.Attributed"] = attributed
	rc.counts["run.Detected"] = detected
	rc.counts["run.KSTests"] = ks
	rc.counts["run.JournalEvents"] = out.journalEvents
	rc.counts["run.BackpressureStalls"] = env.reg.Counter("fleet_backpressure_stalls").Value()
	rc.counts["run.Frames"] = int64(sc.frames * fleetSessions)
	return nil
}

// blockQuantile returns the median over blocks of each block's
// q-quantile. Taken over the whole run, a tail quantile follows the
// few blocks in which other tenants stalled the host; the median over
// blocks is the tail of a typical block, as throughput is the median of
// its slices.
func blockQuantile(blocks [][]float64, q float64) float64 {
	var per []float64
	for _, b := range blocks {
		if len(b) > 0 {
			per = append(per, quantile(b, q))
		}
	}
	return median(per)
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
