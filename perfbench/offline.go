package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"eddie/internal/cfg"
	"eddie/internal/core"
	"eddie/internal/dsp"
	"eddie/internal/emsim"
	"eddie/internal/inject"
	"eddie/internal/isa"
	"eddie/internal/metrics"
	"eddie/internal/mibench"
	"eddie/internal/pipeline"
	"eddie/internal/sim"
	"eddie/internal/trace"
)

// offline_iot runs the paper's Table 1 recipe end to end as a closed
// loop: the IoT pipeline (in-order core plus EM channel) over the ten
// Table 1 MiBench workloads. Each pass monitors 60 runs, six per
// workload in the §5.2 rotation internal/experiments uses: every three
// runs hold one clean run, one ~476k-instruction burst between loops
// and one 8-instruction in-loop injection. Every run goes through
// pipeline.CollectRun and then pipeline.MonitorAndScore.
//
// Why this workload: it is the only one where the isa/sim simulator,
// the EM channel, the offline dsp.STFT, trace labelling and
// core.ExtractSTS do the work, where core.Train dominates set-up, and
// where decisions run on multi-region machines with region switches. It
// bypasses fleet, obs, impair, the denoiser and the adapt layer.

// offlineWorkloads is the paper's Table 1 row order.
var offlineWorkloads = []string{
	"bitcount", "basicmath", "susan", "dijkstra", "patricia",
	"gsm", "fft", "sha", "rijndael", "stringsearch",
}

// offlineTrainRuns is the training run count per workload: enough for
// every region to get a reference, few enough that set-up stays a few
// seconds on one worker.
const offlineTrainRuns = 4

// trainedWorkload couples a model with its machine and workload.
type trainedWorkload struct {
	w       *mibench.Workload
	machine *cfg.Machine
	model   *core.Model
}

// offlineSlot is one monitored run of a pass.
type offlineSlot struct {
	tw     *trainedWorkload
	runIdx int
	inj    inject.Injector
}

// passCounts are the verdict counts of one offline pass; they must
// repeat exactly across passes and runs with one seed.
type passCounts struct {
	Windows, FalsePositives, CleanGroups   int
	TruePositives, InjectedGroups, Covered int
	Episodes, Detections                   int
}

// monitorCounts are the monitor's own counters over one pass, seen by
// the reference and traced passes (the timed passes call
// MonitorAndScore, which keeps the monitor to itself).
type monitorCounts struct {
	Reports, KSTests, RegionSwitches int64
}

func (m *monitorCounts) add(o monitorCounts) {
	m.Reports += o.Reports
	m.KSTests += o.KSTests
	m.RegionSwitches += o.RegionSwitches
}

// Pass modes of offlinePass.
const (
	passTimed     = iota // CollectRun + MonitorAndScore, nothing attached
	passReference        // CollectRun + Monitor with counters + Evaluate
	passTraced           // the traced composition, with counters
)

func runOfflineIoT(rc *runCtx) error {
	c := pipeline.DefaultConfig()
	tc := core.DefaultTrainConfig()
	mc := core.DefaultMonitorConfig()
	names := offlineWorkloads
	if rc.small {
		names = names[:2]
	}

	trained, setupTr, err := rc.trainSetup(names, c, tc)
	if err != nil {
		return err
	}
	slots, err := offlineSlots(rc.seed, trained)
	if err != nil {
		return err
	}

	// Reference pass: untimed, it fixes the counts every later pass and
	// the traced composition must reproduce.
	_, refRuns, refMet, err := offlinePass(slots, c, mc, passReference, nil, nil)
	rc.attempted += len(slots)
	if err != nil {
		return err
	}
	refCounts, refMon := countsOf(refMet, refRuns)
	var samples int64
	for _, r := range refRuns {
		samples += r.samples
	}
	agg := mergeMetrics(refMet)
	rc.e2e["accuracy_pct"] = agg.AccuracyPct()
	rc.e2e["detect_pct"] = agg.DetectionRatePct()
	rc.layer["verdict.fp_pct"] = agg.FalsePositivePct()
	rc.layer["core.ks_tests_per_window"] = float64(refMon.KSTests) / float64(refCounts.Windows)
	rc.layer["core.region_switches"] = float64(refMon.RegionSwitches)
	rc.setCounts(refCounts, refMon)

	if rc.traced {
		return offlineTraced(rc, slots, c, mc, setupTr, refRuns, refCounts, refMon, samples)
	}

	nSlots := len(slots)
	slotTimes := make([][]float64, nSlots)
	passes := 0
	a0 := allocBytes()
	end := rc.deadline()
	for passes < 3 || time.Now().Before(end) {
		times, runs, met, err := offlinePass(slots, c, mc, passTimed, nil, &rc.calib)
		rc.attempted += nSlots
		passes++
		if err != nil {
			rc.fail(nSlots, "offline pass %d: %v", passes, err)
			continue
		}
		if got, _ := countsOf(met, runs); got != refCounts {
			rc.fail(nSlots, "offline pass %d counts %+v != reference %+v", passes, got, refCounts)
		}
		for i, d := range times {
			slotTimes[i] = append(slotTimes[i], d)
		}
	}
	alloc := allocBytes() - a0
	live := heapAfterGC()
	runtime.KeepAlive(trained)

	rc.setSlotTimings(samples, slotTimes)
	rc.e2e["alloc_b_per_sample"] = float64(alloc) / float64(samples*int64(passes))
	rc.e2e["live_heap_mb"] = float64(live) / (1 << 20)
	return nil
}

// setCounts records the exact per-pass counts of each given struct
// (integer fields only) under "pass.<Field>".
func (rc *runCtx) setCounts(structs ...any) {
	for _, st := range structs {
		v := reflect.ValueOf(st)
		for i := 0; i < v.NumField(); i++ {
			rc.counts["pass."+v.Type().Field(i).Name] = v.Field(i).Int()
		}
	}
}

// setSlotTimings records the timing metrics of a closed-loop workload
// from the times (seconds) each slot — one unit a user waits a verdict
// for — took in every pass. A slot's time is its median over the
// passes; throughput divides the samples of a pass by the sum of those
// medians, and the latency percentiles are taken across them.
func (rc *runCtx) setSlotTimings(samples int64, slotTimes [][]float64) {
	ms := make([]float64, len(slotTimes))
	var total float64
	for i, ts := range slotTimes {
		ms[i] = median(ts) * 1e3
		total += ms[i] / 1e3
	}
	rc.setTiming("throughput_msps", float64(samples)/total/1e6, true)
	rc.setTiming("verdict_latency_p50_ms", quantile(ms, 0.5), false)
	rc.setTiming("verdict_latency_p90_ms", quantile(ms, 0.9), false)
}

// trainSetup is the set-up of the simulator-based workloads: training
// every named workload. The timed run sets up three times and records
// the median as setup_s; the traced run sets up once under its tracer.
func (rc *runCtx) trainSetup(names []string, c pipeline.Config, tc core.TrainConfig) ([]*trainedWorkload, *tracer, error) {
	if rc.traced {
		tr := newTracer()
		tws, _, err := trainOffline(names, c, tc, tr, nil)
		return tws, tr, err
	}
	var setups []float64
	var tws []*trainedWorkload
	for i := 0; i < 3; i++ {
		var d float64
		var err error
		tws, d, err = trainOffline(names, c, tc, nil, &rc.calib)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d)
	}
	rc.setTiming("setup_s", median(setups), false)
	return tws, nil, nil
}

// trainOffline trains every named workload on one worker, returning
// the models and the total training time in seconds (each workload's
// training is one step followed by a calibration slice when cal is set).
// With a tracer it composes pipeline.Train's steps itself (region
// machine, clean training runs, core.Train) so each layer gets its own
// span.
func trainOffline(names []string, c pipeline.Config, tc core.TrainConfig, tr *tracer, cal *calibrator) ([]*trainedWorkload, float64, error) {
	out := make([]*trainedWorkload, 0, len(names))
	var total float64
	for _, name := range names {
		w, err := mibench.ByName(name)
		if err != nil {
			return nil, 0, err
		}
		tw := &trainedWorkload{w: w}
		if tr == nil {
			d, err := cal.step(func() (err error) {
				tw.model, tw.machine, err = pipeline.Train(w, c, offlineTrainRuns, tc)
				return err
			})
			if err != nil {
				return nil, 0, err
			}
			total += d
			out = append(out, tw)
			continue
		}
		tr.begin("setup")
		tw.machine, err = cfg.BuildMachine(w.Program)
		if err != nil {
			return nil, 0, err
		}
		runs := make([][]core.STS, offlineTrainRuns)
		for i := range runs {
			_, runs[i], err = tracedCollect(tr, tw, c, i, nil)
			if err != nil {
				return nil, 0, err
			}
		}
		tr.begin("core.Train")
		tw.model, err = core.Train(w.Name, tw.machine, runs, tc)
		tr.end()
		tr.end()
		if err != nil {
			return nil, 0, err
		}
		out = append(out, tw)
	}
	return out, total, nil
}

// offlineRuns is the number of monitored runs per workload in a pass:
// two rounds of the three-run rotation, so the latency percentiles are
// taken over 60 runs and barely depend on which inputs a seed picks.
const offlineRuns = 6

// offlineSlots builds the pass composition with internal/experiments'
// §5.2 rotation: run i of a workload is clean when i%3 == 0, a burst
// after loop nest (i/3)%nests when i%3 == 1, and an in-loop injection
// into that nest's hot loop when i%3 == 2. Run indices and injection
// seeds derive from the workload seed. Locating the hot loop headers is
// the attacker's preparation, not set-up.
func offlineSlots(seed int64, tws []*trainedWorkload) ([]offlineSlot, error) {
	var slots []offlineSlot
	for wi, tw := range tws {
		hot, err := pipeline.HotLoopHeaders(tw.w, tw.machine)
		if err != nil {
			return nil, err
		}
		for i := 0; i < offlineRuns; i++ {
			id := int64(offlineRuns*wi + i)
			nest := (i / 3) % len(tw.machine.Nests)
			s := offlineSlot{tw: tw, runIdx: 1000 + int(seedFor(seed, id)%100000)}
			switch i % 3 {
			case 1:
				s.inj = &inject.Burst{BlockNest: tw.machine.BlockNest, FromNest: nest, Count: 476_000}
			case 2:
				s.inj = &inject.InLoop{
					Header: hot[nest], Instrs: 8, MemOps: 4, Contamination: 1,
					Seed: 1 + seedFor(seed, 2000+id)%1_000_000,
				}
			}
			slots = append(slots, s)
		}
	}
	return slots, nil
}

// runVerdict is what one monitored run produced.
type runVerdict struct {
	sts     []core.STS
	mon     monitorCounts
	samples int64
}

// offlinePass monitors every slot once in the given mode, returning
// each slot's wall time in seconds, its verdict and its metrics. With a
// calibrator every slot is followed by a calibration slice.
func offlinePass(slots []offlineSlot, c pipeline.Config, mc core.MonitorConfig, mode int, tr *tracer, cal *calibrator) ([]float64, []runVerdict, []*core.Metrics, error) {
	times := make([]float64, len(slots))
	verdicts := make([]runVerdict, len(slots))
	mets := make([]*core.Metrics, len(slots))
	for i, s := range slots {
		var err error
		times[i], _ = cal.step(func() error {
			switch mode {
			case passTimed:
				var run *pipeline.Run
				run, err = pipeline.CollectRun(s.tw.w, s.tw.machine, c, s.runIdx, s.inj)
				if err == nil {
					mets[i], err = pipeline.MonitorAndScore(s.tw.model, c, run.STS, mc)
					verdicts[i] = runVerdict{sts: run.STS, samples: int64(len(run.Signal))}
				}
			case passReference:
				var run *pipeline.Run
				run, err = pipeline.CollectRun(s.tw.w, s.tw.machine, c, s.runIdx, s.inj)
				if err == nil {
					verdicts[i], mets[i], err = monitorCounted(nil, s.tw.model, c, run.STS, mc)
					verdicts[i].samples = int64(len(run.Signal))
				}
			default:
				tr.begin("pass.run")
				var n int
				var sts []core.STS
				n, sts, err = tracedCollect(tr, s.tw, c, s.runIdx, s.inj)
				if err == nil {
					verdicts[i], mets[i], err = monitorCounted(tr, s.tw.model, c, sts, mc)
					verdicts[i].samples = int64(n)
				}
				tr.end()
			}
			return nil
		})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s run %d: %w", s.tw.w.Name, s.runIdx, err)
		}
	}
	return times, verdicts, mets, nil
}

// monitorCounted is MonitorAndScore with the monitor's counters
// attached (core.NewMonitor, Observe per window, core.Evaluate), each
// call under a span when tr is non-nil.
func monitorCounted(tr *tracer, model *core.Model, c pipeline.Config, sts []core.STS, mc core.MonitorConfig) (runVerdict, *core.Metrics, error) {
	stats := metrics.NewDetector()
	mc.Stats = stats
	tr.begin("core.NewMonitor")
	mon, err := core.NewMonitor(model, mc)
	tr.end()
	if err != nil {
		return runVerdict{}, nil, err
	}
	for i := range sts {
		tr.begin("core.Observe")
		mon.Observe(&sts[i])
		tr.end()
	}
	tr.begin("core.Evaluate")
	m, err := core.Evaluate(model, sts, mon.Outcomes, mon.Reports, c.HopSeconds())
	tr.end()
	return runVerdict{sts: sts, mon: monitorCounts{
		Reports:        int64(len(mon.Reports)),
		KSTests:        stats.KSTests.Value(),
		RegionSwitches: stats.RegionSwitches.Value(),
	}}, m, err
}

// tracedCollect is pipeline.CollectRun composed from sim.Run,
// emsim.Transmit, dsp.Detrend, dsp.STFT, the dsp.Denoiser,
// trace.LabelFrames and core.ExtractSTS, each (when the config uses it)
// under its own span. It returns the capture
// length and the labelled STS sequence.
func tracedCollect(tr *tracer, tw *trainedWorkload, c pipeline.Config, runIdx int, inj inject.Injector) (int, []core.STS, error) {
	execCfg := isa.ExecConfig{MaxInstrs: c.MaxInstrs, InitMem: tw.w.GenInput(runIdx)}
	var wrap func(isa.Consumer) isa.Consumer
	if inj != nil {
		wrap = inj.Wrap
	}
	tr.begin("sim.Run")
	res, err := sim.Run(tw.w.Program, tw.machine, c.Sim, execCfg, wrap)
	tr.end()
	if err != nil {
		return 0, nil, err
	}
	signal := res.Power
	if c.Channel != nil {
		ch := *c.Channel
		ch.Seed = ch.Seed*1_000_003 + int64(runIdx)
		tr.begin("emsim.Transmit")
		signal, err = emsim.Transmit(res.Power, ch)
		tr.end()
		if err != nil {
			return 0, nil, err
		}
	}
	tr.begin("dsp.STFT")
	frames, err := dsp.STFT(dsp.Detrend(signal), c.STFT)
	tr.end()
	if err != nil {
		return 0, nil, err
	}
	if c.Denoise.Enabled() {
		// The denoiser rewrites each frame's power in place, in stream
		// order, exactly as pipeline.Reduce applies it.
		tr.begin("dsp.Denoiser")
		dn, err := dsp.NewDenoiser(c.Denoise, c.STFT.WindowSize/2+1)
		if err != nil {
			tr.end()
			return 0, nil, err
		}
		for i := range frames {
			dn.Push(frames[i].Power)
		}
		tr.end()
	}
	tr.begin("trace.LabelFrames")
	labeled := trace.LabelFrames(frames, c.STFT, res)
	tr.end()
	tr.begin("core.ExtractSTS")
	sts := core.ExtractSTS(labeled, c.STFT, c.Peaks)
	tr.end()
	return len(signal), sts, nil
}

// countsOf sums a pass's verdict and monitor counts.
func countsOf(mets []*core.Metrics, vs []runVerdict) (passCounts, monitorCounts) {
	var pc passCounts
	var mon monitorCounts
	for i, m := range mets {
		mon.add(vs[i].mon)
		pc.Windows += len(vs[i].sts)
		pc.FalsePositives += m.FalsePositives
		pc.CleanGroups += m.CleanGroups
		pc.TruePositives += m.TruePositives
		pc.InjectedGroups += m.InjectedGroups
		pc.Covered += m.CoveredWindows
		pc.Episodes += m.Episodes
		pc.Detections += m.Detections
	}
	return pc, mon
}

// mergeMetrics aggregates a pass's metrics in slot order (float
// accumulation is order-sensitive).
func mergeMetrics(ms []*core.Metrics) *core.Metrics {
	agg := &core.Metrics{}
	for _, m := range ms {
		agg.Merge(m)
	}
	return agg
}

// offlineTraced is the traced run: untraced and traced passes alternate
// until the deadline, the traced composition is checked against the
// reference pass run by run, and the spans become per-layer metrics.
func offlineTraced(rc *runCtx, slots []offlineSlot, c pipeline.Config, mc core.MonitorConfig, setupTr *tracer, refRuns []runVerdict, refCounts passCounts, refMon monitorCounts, samples int64) error {
	tr := newTracer()
	var plain, traced []float64
	slotTimes := make([][]float64, len(slots))
	passes := 0
	end := rc.deadline()
	for passes < 1 || time.Now().Before(end) {
		rc.calib.slice()
		times, _, _, err := offlinePass(slots, c, mc, passTimed, nil, nil)
		rc.attempted += len(slots)
		if err != nil {
			rc.fail(len(slots), "untraced pass: %v", err)
			continue
		}
		plain = append(plain, sum(times))
		for i, d := range times {
			slotTimes[i] = append(slotTimes[i], d)
		}
		tr.begin("pass")
		times, runs, mets, err := offlinePass(slots, c, mc, passTraced, tr, nil)
		tr.end()
		rc.attempted += len(slots)
		passes++
		if err != nil {
			rc.fail(len(slots), "traced pass: %v", err)
			continue
		}
		traced = append(traced, sum(times))
		for i := range runs {
			if !reflect.DeepEqual(runs[i].sts, refRuns[i].sts) {
				rc.fail(1, "traced composition STS differ from pipeline.CollectRun on %s run %d",
					slots[i].tw.w.Name, slots[i].runIdx)
			}
		}
		if got, mon := countsOf(mets, runs); got != refCounts || mon != refMon {
			rc.fail(len(slots), "traced pass counts %+v %+v != reference %+v %+v", got, mon, refCounts, refMon)
		}
	}
	self := tr.layerTimes()
	windows := float64(refCounts.Windows * passes)
	runs := float64(len(slots) * passes)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / windows }
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 / runs }
	rc.layer["sim.ms_per_run"] = ms(self["sim.Run"])
	rc.layer["emsim.ms_per_run"] = ms(self["emsim.Transmit"])
	rc.layer["dsp.stft_us_per_window"] = us(self["dsp.STFT"])
	rc.layer["trace.label_us_per_window"] = us(self["trace.LabelFrames"])
	rc.layer["core.extract_us_per_window"] = us(self["core.ExtractSTS"])
	rc.layer["core.observe_us_per_window"] = us(self["core.Observe"])
	rc.layer["core.train_s"] = setupTr.total("core.Train").Seconds()
	passTime := tr.total("pass")
	covered := passTime - self["pass"] - self["pass.run"]
	rc.layer["bench.traced_coverage_pct"] = 100 * float64(covered) / float64(passTime)
	rc.layer["bench.trace_overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	rc.setSlotTimings(samples, slotTimes)
	rc.counts["traced_passes"] = int64(passes)
	return nil
}

// sum adds xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
