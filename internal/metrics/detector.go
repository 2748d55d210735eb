package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"

	"eddie/internal/cfg"
)

// latencyBucketsSTS are histogram bounds for detection latency measured
// in STS windows.
var latencyBucketsSTS = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// peakBuckets are histogram bounds for per-window peak counts.
var peakBuckets = []float64{0, 1, 2, 4, 6, 8, 12, 16, 24, 32}

// statBuckets are histogram bounds for the per-region K-S rejection
// fraction (the share of peak-rank tests that rejected, in [0,1]).
var statBuckets = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}

// DriftEWMAAlpha is the smoothing factor of the per-region K-S
// statistic EWMAs (region_stat_ewma/R*): slow enough to average over
// the test-to-test jitter of a healthy channel, fast enough that gain
// drift or reference staleness moves the gauge within a few hundred
// windows. These gauges are the drift-adaptive roadmap item's input
// signal: a region whose EWMA climbs while no alarm fires is a channel
// drifting away from its frozen training-time reference.
const DriftEWMAAlpha = 0.02

// Detector bundles the instruments of one detector instance. Handing
// it to a monitor (core.MonitorConfig.Stats, or stream.Config.Metrics,
// which the stream detector passes on) captures the monitoring
// internals through its nil-safe hook methods: K-S tests run,
// per-region statistic distributions, region switches, reports and
// admitted adaptation updates. The stream layer adds sample/window
// counters and, when ground truth is available, false-positive/negative
// counts and detection latency.
type Detector struct {
	// Reg is the backing registry; Snapshot/MarshalJSON/Publish live
	// there.
	Reg *Registry

	// SamplesIn counts raw samples fed; Sanitized the non-finite samples
	// replaced by zero; Windows the STSs produced; ReportsFired the
	// anomaly reports raised.
	SamplesIn, Sanitized, Windows, ReportsFired *Counter
	// KSTests counts region-level K-S decisions; KSRejects the rejecting
	// ones.
	KSTests, KSRejects *Counter
	// RegionSwitches counts monitor region transitions.
	RegionSwitches *Counter
	// TruePos/FalsePos/TrueNeg/FalseNeg classify windows against
	// injected ground truth (only populated when ground truth is wired).
	TruePos, FalsePos, TrueNeg, FalseNeg *Counter
	// DenoiseRefactors counts subspace refactorizations of the denoising
	// stage (zero when denoising is disabled).
	DenoiseRefactors *Counter
	// DenoiseRank is the effective rank of the current denoising basis;
	// DenoiseEnergyPct the percentage of block spectral energy it
	// captures. Both update on each refactorization.
	DenoiseRank, DenoiseEnergyPct *Gauge
	// AdaptUpdates counts reference updates admitted by the monitor's
	// drift-adaptive layer; AdaptDrift is the cumulative normalized
	// distance the adaptive references have moved from their trained
	// position. Both stay zero with adaptation disabled.
	AdaptUpdates *Counter
	AdaptDrift   *FloatGauge
	// PeakCount is the distribution of per-window peak counts.
	PeakCount *Histogram
	// LatencySTS and LatencySamples are detection latency distributions,
	// from the first injected window of an episode to its report.
	LatencySTS, LatencySamples *Histogram
	// WindowNanos is the distribution of per-window processing cost
	// (STFT + denoise + peaks + decision) in nanoseconds — the
	// detector-level half of the fleet's frame-to-verdict budget.
	// Lock-free and zero-alloc, recorded on every window.
	WindowNanos *LogHistogram

	// regions caches per-region instruments. Resolving them through the
	// registry needs a formatted name, and the monitor consults these
	// hooks every window — a Sprintf per K-S decision would put string
	// allocation on the detector's zero-alloc sample path.
	regions sync.Map // cfg.RegionID -> *regionInstruments
}

// regionInstruments bundles the instruments scoped to one region.
type regionInstruments struct {
	stat             *Histogram
	statEWMA         *FloatGauge
	windows, rejects *Counter
	// adaptDrift is resolved on the region's first admitted adaptation
	// update, so static detectors export no region_adapt_drift gauges.
	adaptDrift atomic.Pointer[FloatGauge]
}

// region returns the cached instruments for one region, resolving them
// from the registry on first use. Registry instruments are interned by
// name, so a racing double-create resolves to the same counters.
func (d *Detector) region(id cfg.RegionID) *regionInstruments {
	if v, ok := d.regions.Load(id); ok {
		return v.(*regionInstruments)
	}
	ri := &regionInstruments{
		stat:     d.Reg.Histogram(fmt.Sprintf("region_stat/R%d", id), statBuckets),
		statEWMA: d.Reg.FloatGauge(fmt.Sprintf("region_stat_ewma/R%d", id)),
		windows:  d.Reg.Counter(fmt.Sprintf("region_windows/R%d", id)),
		rejects:  d.Reg.Counter(fmt.Sprintf("region_rejects/R%d", id)),
	}
	v, _ := d.regions.LoadOrStore(id, ri)
	return v.(*regionInstruments)
}

// NewDetector creates a detector instrument bundle on a fresh registry.
func NewDetector() *Detector { return NewDetectorWith(NewRegistry()) }

// NewDetectorWith creates a detector instrument bundle on an existing
// registry. Instruments are resolved by name, so several bundles built
// on the same registry share the same counters — this is how a fleet of
// concurrent detector sessions aggregates into one scrape target. All
// instruments are safe for concurrent use across sessions.
func NewDetectorWith(reg *Registry) *Detector {
	return &Detector{
		Reg:              reg,
		SamplesIn:        reg.Counter("samples_in"),
		Sanitized:        reg.Counter("samples_sanitized"),
		Windows:          reg.Counter("sts_produced"),
		ReportsFired:     reg.Counter("reports_fired"),
		KSTests:          reg.Counter("ks_tests"),
		KSRejects:        reg.Counter("ks_rejects"),
		RegionSwitches:   reg.Counter("region_switches"),
		TruePos:          reg.Counter("truth_true_positive"),
		FalsePos:         reg.Counter("truth_false_positive"),
		TrueNeg:          reg.Counter("truth_true_negative"),
		FalseNeg:         reg.Counter("truth_false_negative"),
		DenoiseRefactors: reg.Counter("denoise_refactors"),
		DenoiseRank:      reg.Gauge("denoise_rank"),
		DenoiseEnergyPct: reg.Gauge("denoise_energy_pct"),
		AdaptUpdates:     reg.Counter("adapt_updates"),
		AdaptDrift:       reg.FloatGauge("adapt_drift"),
		PeakCount:        reg.Histogram("peak_count", peakBuckets),
		LatencySTS:       reg.Histogram("detection_latency_sts", latencyBucketsSTS),
		LatencySamples:   reg.Histogram("detection_latency_samples", nil),
		WindowNanos:      reg.LogHist("window_process_ns"),
	}
}

// KSTest counts one region-level K-S decision of the monitor, with the
// best-mode rejection fraction as the test statistic. No-op on nil.
func (d *Detector) KSTest(region cfg.RegionID, rejFrac float64, rejected bool) {
	if d == nil {
		return
	}
	d.KSTests.Inc()
	if rejected {
		d.KSRejects.Inc()
	}
	ri := d.region(region)
	ri.stat.Observe(rejFrac)
	// Drift telemetry: the EWMA of the region test statistic. Healthy
	// channels hold it near the training-time baseline; slow channel
	// drift (gain, DC wander, clock skew) pushes it up long before the
	// rejection streak threshold fires an alarm.
	ri.statEWMA.ObserveEWMA(rejFrac, DriftEWMAAlpha)
}

// WindowObserved counts one STS processed by the monitor in the region
// it ended the window in. No-op on nil.
func (d *Detector) WindowObserved(region cfg.RegionID, rejected bool) {
	if d == nil {
		return
	}
	ri := d.region(region)
	ri.windows.Inc()
	if rejected {
		ri.rejects.Inc()
	}
}

// AdaptUpdate counts one reference update admitted by the monitor's
// drift-adaptive layer, with the updated region's cumulative drift
// (region_adapt_drift/R<id>) and the monitor's total (adapt_drift). In
// a fleet several sessions share these gauges, which then hold the most
// recently reporting session's value. No-op on nil.
func (d *Detector) AdaptUpdate(region cfg.RegionID, regionDrift, totalDrift float64) {
	if d == nil {
		return
	}
	d.AdaptUpdates.Inc()
	d.AdaptDrift.Set(totalDrift)
	ri := d.region(region)
	g := ri.adaptDrift.Load()
	if g == nil {
		g = d.Reg.FloatGauge(fmt.Sprintf("region_adapt_drift/R%d", region))
		ri.adaptDrift.Store(g)
	}
	g.Set(regionDrift)
}

// ReportFired counts one anomaly report raised by the monitor. No-op on
// nil.
func (d *Detector) ReportFired() {
	if d == nil {
		return
	}
	d.ReportsFired.Inc()
}

// RegionSwitch counts one monitor region transition. No-op on nil.
func (d *Detector) RegionSwitch() {
	if d == nil {
		return
	}
	d.RegionSwitches.Inc()
}
