package core

import (
	"fmt"

	"eddie/internal/cfg"
	"eddie/internal/metrics"
	"eddie/internal/obs"
	"eddie/internal/stats"
)

// The monitor's fixed operating point (Algorithm 1).
const (
	// reportThreshold is how many consecutive K-S rejections are
	// tolerated before an anomaly is reported; the paper uses 3 (an
	// anomaly is reported on a 4-long-or-longer rejection streak).
	reportThreshold = 3
	// minTestWindows is the smallest K-S group the monitor will test;
	// right after a region switch the monitor only has a few windows of
	// the new region and waits until this many have accumulated.
	minTestWindows = 4
	// probeWindows is the group size used when probing successor
	// regions for a region change: small, so the probe reflects only the
	// most recent windows (which belong to the new region at a true
	// border).
	probeWindows = 8
	// burstWindows is the horizon of a second, short K-S test run
	// alongside the region's trained group size: regions with diffuse
	// spectra train large n (hundreds of windows), and a brief injected
	// burst would dilute to invisibility inside such a group. The short
	// test keeps burst detection responsive; its occasional false
	// rejections are absorbed by reportThreshold.
	burstWindows = 12
)

// MonitorConfig controls the monitoring algorithm (Algorithm 1).
type MonitorConfig struct {
	// GroupSizeScale multiplies every region's trained group size n;
	// the sensitivity sweeps (Figs 3, 6, 8, 9, 10) use it to trade
	// detection latency against accuracy. Zero means 1.
	GroupSizeScale float64
	// Adapt configures the drift-adaptive reference layer (see
	// AdaptConfig). The zero value disables it, leaving the decision path
	// bit-identical to the static monitor.
	Adapt AdaptConfig
	// Stats, when non-nil, counts monitoring-internals events (K-S
	// tests, per-window outcomes, region switches, reports, admitted
	// adaptation updates). It is never consulted for decisions.
	Stats *metrics.Detector
	// Trace, when non-nil, records a span per observed window plus
	// instant events for region switches and fired reports on the
	// recorder's "monitor" track. Nil (the default) costs nothing.
	Trace *obs.Recorder
	// Flight, when non-nil, keeps the monitor's per-window
	// decision-provenance records (region under test, group size,
	// per-rank K-S statistics vs. the cAlpha threshold, transition
	// taken) and takes an alarm dump whenever a report fires. The
	// monitor builds each record either way; nil keeps none.
	Flight *obs.FlightRecorder
}

// DefaultMonitorConfig mirrors the paper's operating point: the
// static monitor with its default burst horizon and no hooks.
func DefaultMonitorConfig() MonitorConfig {
	return MonitorConfig{}
}

// Report is one anomaly reported to the user.
type Report struct {
	// Window is the index of the STS at which the report fired.
	Window int
	// TimeSec is that STS's start time within the run.
	TimeSec float64
	// Region is the monitor's current region at report time.
	Region cfg.RegionID
}

// WindowOutcome records the monitor's view of one observed STS, consumed
// by the evaluation harness.
type WindowOutcome struct {
	// Region is the monitor's region estimate when the window was
	// processed (used for the coverage metric).
	Region cfg.RegionID
	// Rejected reports whether the current region's K-S test rejected.
	Rejected bool
	// Flagged reports whether the window fell inside an active alarm
	// (a rejection streak that crossed reportThreshold).
	Flagged bool
}

// Monitor consumes a stream of STSs and reports anomalies, walking the
// region-level state machine as execution progresses (Algorithm 1).
type Monitor struct {
	model  *Model
	mcfg   MonitorConfig
	cAlpha float64

	// ring buffers the last MaxGroupSize peak-frequency vectors.
	ring    [][]float64
	ringCap int
	seen    int

	cur        cfg.RegionID
	streak     int
	alarm      bool
	lastSwitch int // value of seen when the monitor entered cur
	// burst is the short-horizon test's group size (burstWindows;
	// in-package tests raise it out of reach to isolate the main test).
	burst int

	// slots cache sorted group sets keyed by group size: a probe of R
	// candidate regions at the same effective n reuses one sorted fill,
	// and consecutive windows at the same n slide the sorted groups
	// incrementally instead of rebuilding and re-sorting them. Three
	// slots cover the steady-state fill sizes (trained n, burst horizon,
	// probe size).
	slots [3]fillSlot
	// energyRing buffers each window's AC energy alongside ring.
	energyRing []float64
	lastMode   map[cfg.RegionID]int
	// adapt holds the drift-adaptive reference state; nil (the default)
	// is the static monitor.
	adapt *adaptState

	// Reports collects the anomalies reported so far.
	Reports []Report
	// Outcomes collects one record per observed STS (since the last
	// TrimHistory call; see OutcomeAt for absolute-index access).
	Outcomes []WindowOutcome
	// trimmed is the number of outcomes discarded by TrimHistory:
	// Outcomes[0] describes absolute window index trimmed.
	trimmed int

	// Observability state: the trace track (zero when Trace is nil), the
	// per-rank provenance capture scratch and the reusable window records
	// (main decision and short-horizon burst test), filled on every
	// window.
	track    obs.Track
	prov     provCapture
	rec      obs.WindowRecord
	recBurst obs.WindowRecord
}

// NewMonitor creates a monitor positioned at the program start. The model
// must contain at least one region.
func NewMonitor(model *Model, mcfg MonitorConfig) (*Monitor, error) {
	if model == nil || len(model.Regions) == 0 {
		return nil, fmt.Errorf("core: monitor needs a trained model with at least one region")
	}
	if mcfg.GroupSizeScale < 0 {
		return nil, fmt.Errorf("core: negative group size scale %g", mcfg.GroupSizeScale)
	}
	scale := mcfg.GroupSizeScale
	if scale == 0 {
		scale = 1
	}
	ringCap := int(float64(model.MaxGroupSize)*scale) + 1
	if ringCap < 2 {
		ringCap = 2
	}
	maxRanks := 0
	for _, rm := range model.Regions {
		if rm.NumPeaks > maxRanks {
			maxRanks = rm.NumPeaks
		}
	}
	m := &Monitor{
		model:      model,
		mcfg:       mcfg,
		cAlpha:     stats.KolmogorovInverse(1 - model.Alpha),
		ringCap:    ringCap,
		ring:       make([][]float64, 0, ringCap),
		energyRing: make([]float64, ringCap),
		lastMode:   map[cfg.RegionID]int{},
		cur:        startRegion(model),
		burst:      burstWindows,
		track:      mcfg.Trace.Track("monitor"),
	}
	for i := range m.slots {
		m.slots[i].g = newGroupSet(maxRanks, ringCap)
	}
	if mcfg.Adapt.Enabled {
		a, err := newAdaptState(mcfg.Adapt)
		if err != nil {
			return nil, err
		}
		m.adapt = a
	}
	return m, nil
}

// fillSlot caches one sorted group set together with the group size and
// window position it was built for. A slot whose (n, seen) matches a
// fill request is reused outright; one that is exactly one window behind
// at the same n is slid forward incrementally.
type fillSlot struct {
	n    int
	seen int
	g    groupSet
}

// newGroupSet allocates a group set with capacity for capacity windows
// across ranks peak ranks; all later fills reuse these backing arrays,
// keeping the decision loop allocation-free.
func newGroupSet(ranks, capacity int) groupSet {
	g := groupSet{
		ranks:    make([][]float64, ranks),
		counts:   make([]float64, 0, capacity),
		energies: make([]float64, 0, capacity),
	}
	for k := range g.ranks {
		g.ranks[k] = make([]float64, 0, capacity)
	}
	return g
}

// startRegion picks the monitor's initial region: the start-boundary
// transition if modeled, else the lowest-numbered modeled region.
func startRegion(model *Model) cfg.RegionID {
	for _, r := range model.Machine.Regions {
		if r.Kind == cfg.TransRegion && r.From == cfg.Boundary {
			if _, ok := model.Regions[r.ID]; ok {
				return r.ID
			}
		}
	}
	return model.RegionIDs()[0]
}

// CurrentRegion returns the monitor's current region estimate.
func (m *Monitor) CurrentRegion() cfg.RegionID { return m.cur }

// TrimHistory drops the oldest Outcomes and Reports so that at most keep
// of each remain, releasing the memory a long-running monitoring session
// would otherwise accumulate without bound (a day-long device stream
// produces millions of windows). Decision state — the sliding STS ring,
// the region estimate, streaks — is untouched: trimming never changes
// verdicts. Absolute window indexing survives via OutcomeAt.
func (m *Monitor) TrimHistory(keep int) {
	if keep < 0 {
		keep = 0
	}
	if drop := len(m.Outcomes) - keep; drop > 0 {
		m.trimmed += drop
		m.Outcomes = append(m.Outcomes[:0], m.Outcomes[drop:]...)
	}
	if drop := len(m.Reports) - keep; drop > 0 {
		m.Reports = append(m.Reports[:0], m.Reports[drop:]...)
	}
}

// OutcomeAt returns the outcome of the window with absolute index w
// (counting every window ever observed, regardless of trimming). The
// second result is false when the window was trimmed away or not yet
// observed.
func (m *Monitor) OutcomeAt(w int) (WindowOutcome, bool) {
	i := w - m.trimmed
	if i < 0 || i >= len(m.Outcomes) {
		return WindowOutcome{}, false
	}
	return m.Outcomes[i], true
}

// groupSize returns the effective K-S group size for a region.
func (m *Monitor) groupSize(rm *RegionModel) int {
	n := rm.GroupSize
	if m.mcfg.GroupSizeScale != 0 {
		n = int(float64(n) * m.mcfg.GroupSizeScale)
	}
	if n < 2 {
		n = 2
	}
	if n > m.ringCap {
		n = m.ringCap
	}
	return n
}

// Observe processes one STS and returns true if an anomaly report fired on
// this window.
func (m *Monitor) Observe(sts *STS) bool {
	sp := m.track.Start("observe")
	m.push(sts)
	out := WindowOutcome{Region: m.cur}
	reported := false

	// rec accumulates this window's decision provenance in the monitor's
	// reusable scratch record; the flight recorder, when attached,
	// deep-copies it on Record.
	rec := &m.rec
	*rec = obs.WindowRecord{
		Window:        m.seen - 1,
		TimeSec:       sts.TimeSec,
		Region:        int(m.cur),
		BestMode:      -1,
		SwitchTo:      -1,
		Transition:    obs.TransStay,
		CAlpha:        m.cAlpha,
		Ranks:         rec.Ranks[:0],
		RejectedRanks: rec.RejectedRanks[:0],
	}

	curModel := m.regionModel(m.cur)
	switch {
	case curModel == nil:
		// The monitor believes it is in a region training never modeled;
		// treat as rejected and try to move on.
		out.Rejected = true
		reported = m.handleRejection(sts)
	case !curModel.Testable():
		// Blind region: no peaks to test. Try to leave as soon as a
		// successor matches; never raise anomalies from here (this is
		// the coverage cost the paper attributes to peakless loops).
		rec.Transition = obs.TransBlind
		if id, ok := m.bestSuccessor(); ok {
			m.switchTo(id)
			rec.Transition = obs.TransSwitch
			rec.SwitchTo = int(id)
		}
		m.streak = 0
		m.alarm = false
	default:
		// Test only windows observed since entering the current region:
		// mixing the previous region's windows into the group would make
		// every region border look anomalous.
		n := m.groupSize(curModel)
		full := true
		avail := m.seen - m.lastSwitch
		if avail < n {
			n = avail
			full = false
		}
		if n < minTestWindows {
			break // too few windows of this region yet
		}
		rejected := m.evalRegion(curModel, n, rec).rejected
		if !rejected && n > m.burst {
			// Multi-scale: also test a short recent horizon so a brief
			// burst cannot hide inside a large trained group size. The
			// burst evidence only becomes the window's provenance when it
			// is the decisive (rejecting) test; otherwise the accepted
			// full-group evidence stands.
			if m.evalRegion(curModel, m.burst, &m.recBurst).rejected {
				rejected = true
				m.recBurst.Burst = true
				rec.CopyEvidence(&m.recBurst)
			}
		}
		if rejected {
			out.Rejected = true
			reported = m.handleRejection(sts)
		} else {
			m.streak = 0
			m.alarm = false
			if m.adapt != nil {
				// A clean verdict: extend the clean streak, and offer the
				// group as a teacher if it is the region's trained group
				// (or a still-representative partial one).
				m.adaptObserve(curModel, n, full || n >= adaptMinGroup)
			}
		}
	}

	out.Flagged = m.alarm
	out.Region = m.cur
	m.Outcomes = append(m.Outcomes, out)
	m.mcfg.Stats.WindowObserved(out.Region, out.Rejected)
	rec.Rejected = out.Rejected
	rec.Flagged = out.Flagged
	rec.Streak = m.streak
	rec.Reported = reported
	m.mcfg.Flight.Record(rec)
	if reported {
		// Snapshot the ring after recording, so the dump's final record
		// is the alarm window itself with its evidence.
		m.mcfg.Flight.Alarm(rec.Window, rec.TimeSec, rec.Region, rec.Streak, rec.RejectedRanks)
		m.track.Instant("report")
	}
	sp.End()
	return reported
}

// handleRejection implements the rejected branch of Algorithm 1: consider
// successor regions; failing that, count toward an anomaly report. The
// transition taken lands in the window record.
func (m *Monitor) handleRejection(sts *STS) bool {
	if m.adapt != nil {
		// Any rejection — including one resolved by a region switch —
		// breaks the clean streak that gates reference updates.
		m.adapt.cleanStreak = 0
	}
	if id, ok := m.bestSuccessor(); ok {
		m.switchTo(id)
		m.rec.Transition = obs.TransSwitch
		m.rec.SwitchTo = int(id)
		return false
	}
	m.streak++
	if m.streak > reportThreshold {
		if !m.alarm {
			m.alarm = true
			m.Reports = append(m.Reports, Report{
				Window:  m.seen - 1,
				TimeSec: sts.TimeSec,
				Region:  m.cur,
			})
			m.mcfg.Stats.ReportFired()
			return true
		}
		// Alarm already raised and the stream still doesn't match: try a
		// global re-lock so the monitor recovers tracking after the
		// anomalous episode ends (e.g. once a burst finishes, execution
		// continues somewhere the successor relation can't reach). A
		// successful re-lock clears the alarm: the report already fired,
		// and flagging the recovered-clean stream would only inflate
		// false positives — if the attack is still ongoing, the re-locked
		// region rejects again within a few windows and re-alarms.
		if m.streak > 2*reportThreshold {
			if id, ok := m.bestRegionGlobal(); ok {
				m.switchTo(id)
				m.rec.Transition = obs.TransRelock
				m.rec.SwitchTo = int(id)
			}
		}
	}
	return false
}

// probe tests a candidate region against the most recent windows — at
// most probeWindows of them, so at a true border the group holds only
// the new region's windows — and returns its match score, one minus the
// best mode's rank-rejection fraction. ok is false when too few windows
// have been seen or the region rejects; an accepted region's score is
// always at least 1-rejectFraction, so acceptance is the whole switch
// rule. Probes keep no provenance.
func (m *Monitor) probe(rm *RegionModel) (score float64, ok bool) {
	n := m.groupSize(rm)
	if n > probeWindows {
		n = probeWindows
	}
	if m.seen < n {
		return 0, false
	}
	res := m.evalRegion(rm, n, nil)
	if res.rejected {
		return 0, false
	}
	return 1 - res.bestRejFrac, true
}

// bestRegionGlobal probes every modeled region (ignoring the successor
// relation) and returns the best match, if any region accepts.
func (m *Monitor) bestRegionGlobal() (cfg.RegionID, bool) {
	var bestID cfg.RegionID = cfg.NoRegion
	bestScore := -1.0
	for _, id := range m.model.RegionIDs() {
		if id == m.cur {
			continue
		}
		rm := m.regionModel(id)
		if !rm.Testable() {
			continue
		}
		if score, ok := m.probe(rm); ok && score > bestScore {
			bestScore = score
			bestID = id
		}
	}
	return bestID, bestID != cfg.NoRegion
}

// bestSuccessor evaluates the successors of the current region and
// returns the best-matching one, if any accepts.
func (m *Monitor) bestSuccessor() (cfg.RegionID, bool) {
	var bestID cfg.RegionID = cfg.NoRegion
	bestScore := -1.0
	var blindID cfg.RegionID = cfg.NoRegion
	for _, succ := range m.model.Machine.Successors(m.cur) {
		rm := m.regionModel(succ)
		if rm == nil {
			continue
		}
		if !rm.Testable() {
			if blindID == cfg.NoRegion {
				blindID = succ
			}
			continue
		}
		if score, ok := m.probe(rm); ok && score > bestScore {
			bestScore = score
			bestID = succ
		}
	}
	if bestID != cfg.NoRegion {
		return bestID, true
	}
	// Fall back to a blind successor only when nothing else matches AND
	// the alarm has already fired: the program may well be inside a
	// peakless loop (which produces no evidence either way), but moving
	// there must never preempt the anomaly report itself.
	if blindID != cfg.NoRegion && m.alarm {
		return blindID, true
	}
	return cfg.NoRegion, false
}

// switchTo moves the monitor to a new region. The adaptive clean streak
// deliberately survives the switch: a border crossing is normal program
// behavior, and resetting here would keep short-dwell regions from ever
// accumulating enough trust to learn. Suspicion events (rejections,
// relocks) reset the streak in handleRejection instead.
func (m *Monitor) switchTo(id cfg.RegionID) {
	if id == m.cur {
		m.streak = 0
		m.alarm = false
		return
	}
	m.mcfg.Stats.RegionSwitch()
	m.track.Instant("region_switch")
	m.cur = id
	m.streak = 0
	m.alarm = false
	m.lastSwitch = m.seen
}

// fillGroups returns the group set of the last n observed windows,
// sorted ascending per slice and served from the slot cache: a request
// matching a slot's (n, seen) costs nothing (every candidate region
// probed at the same n this window shares one fill), a request one
// window ahead at the same n slides the sorted groups incrementally
// (O(n) instead of O(n log n) re-sorts per rank), and only a cache miss
// rebuilds and re-sorts from the ring.
// The group's content depends only on (n, seen) — never on the region
// under test — which is what makes the cache sound.
func (m *Monitor) fillGroups(n int) *groupSet {
	var slot *fillSlot
	for i := range m.slots {
		if m.slots[i].n == n {
			slot = &m.slots[i]
			break
		}
	}
	if slot != nil {
		if slot.seen == m.seen {
			return &slot.g
		}
		if slot.seen == m.seen-1 && n < m.seen && m.slideSlot(slot) {
			return &slot.g
		}
	} else {
		// Evict the stalest slot; break ties toward the smaller n (the
		// cheaper rebuild).
		slot = &m.slots[0]
		for i := 1; i < len(m.slots); i++ {
			s := &m.slots[i]
			if s.seen < slot.seen || (s.seen == slot.seen && s.n < slot.n) {
				slot = s
			}
		}
	}
	m.fillInto(&slot.g, n)
	slot.g.sortAll()
	slot.n, slot.seen = n, m.seen
	return &slot.g
}

// fillInto loads the last n windows' rank values, peak counts and
// energies into g in window-time order (unsorted).
func (m *Monitor) fillInto(g *groupSet, n int) {
	g.reset()
	for i := m.seen - n; i < m.seen; i++ {
		v := m.ring[i%m.ringCap]
		g.counts = append(g.counts, float64(len(v)))
		g.energies = append(g.energies, m.energyRing[i%m.ringCap])
		for k := range g.ranks {
			if k < len(v) {
				g.ranks[k] = append(g.ranks[k], v[k])
			} else {
				g.ranks[k] = append(g.ranks[k], 0)
			}
		}
	}
}

// slideSlot advances a sorted slot by one window: the slot holds windows
// [seen-1-n, seen-1) and must come to hold [seen-n, seen), so window
// seen-1-n leaves every slice and window seen-1 enters. The leaving
// window is still live in the ring (the ring keeps ringCap > n windows).
// On any failure (a non-finite value defeating the sorted search) the
// slot is left inconsistent and the caller rebuilds it from scratch.
func (m *Monitor) slideSlot(s *fillSlot) bool {
	iOut := (m.seen - 1 - s.n) % m.ringCap
	iIn := (m.seen - 1) % m.ringCap
	out, in := m.ring[iOut], m.ring[iIn]
	for k := range s.g.ranks {
		if !stats.SlideSorted(s.g.ranks[k], rankOf(out, k), rankOf(in, k)) {
			return false
		}
	}
	if !stats.SlideSorted(s.g.counts, float64(len(out)), float64(len(in))) {
		return false
	}
	if !stats.SlideSorted(s.g.energies, m.energyRing[iOut], m.energyRing[iIn]) {
		return false
	}
	s.seen = m.seen
	return true
}

// rankOf returns the rank-k value of one window's peak-frequency vector,
// zero-padded past the available peaks (the same padding fillInto uses).
func rankOf(v []float64, k int) float64 {
	if k < len(v) {
		return v[k]
	}
	return 0
}

// evalRegion tests the last n windows against a region model, starting the
// mode scan at the region's last good mode. rec, when non-nil, receives
// the evaluation's provenance (group size, best mode, per-rank K-S
// statistics); the decision itself is unchanged by capture. Probes pass
// nil.
func (m *Monitor) evalRegion(rm *RegionModel, n int, rec *obs.WindowRecord) evalResult {
	g := m.fillGroups(n)
	start := 0
	if len(rm.Modes) > 0 {
		start = m.lastMode[rm.Region] % len(rm.Modes)
	}
	var pc *provCapture
	if rec != nil {
		pc = &m.prov
	}
	res := evalGroups(rm, rm.Modes, g, m.cAlpha, start, pc)
	if !res.rejected && res.bestMode >= 0 {
		m.lastMode[rm.Region] = res.bestMode
	}
	m.mcfg.Stats.KSTest(rm.Region, res.bestRejFrac, res.rejected)
	if rec != nil {
		rec.Tested = true
		rec.GroupSize = n
		rec.BestMode = res.bestMode
		rec.RejFrac = res.bestRejFrac
		rec.CountOut = res.countOut
		rec.Ranks = append(rec.Ranks[:0], m.prov.best...)
		rec.RejectedRanks = rec.RejectedRanks[:0]
		for _, rk := range rec.Ranks {
			if rk.Rejected {
				rec.RejectedRanks = append(rec.RejectedRanks, rk.Rank)
			}
		}
	}
	return res
}

// push appends an STS's peak-frequency vector and energy to the history
// ring.
func (m *Monitor) push(sts *STS) {
	if len(m.ring) < m.ringCap {
		v := make([]float64, len(sts.PeakFreqs))
		copy(v, sts.PeakFreqs)
		m.ring = append(m.ring, v)
	} else {
		m.ring[m.seen%m.ringCap] = append(m.ring[m.seen%m.ringCap][:0], sts.PeakFreqs...)
	}
	m.energyRing[m.seen%m.ringCap] = sts.Energy
	m.seen++
}
