package obs

import (
	"encoding/json"
	"sync"
)

// Transition names the monitor state-machine edge taken on one window.
const (
	// TransStay: the monitor stayed in its current region.
	TransStay = "stay"
	// TransSwitch: the monitor moved to a successor region.
	TransSwitch = "switch"
	// TransRelock: the monitor re-locked globally after a stuck alarm.
	TransRelock = "relock"
	// TransBlind: the current region is blind (no peaks to test).
	TransBlind = "blind"
)

// RankKS is the per-peak-rank evidence of one region-level K-S
// evaluation: the two-sample K-S statistic D for that rank against the
// best training mode, the critical value it was compared to (cAlpha
// scaled by the two sample sizes), and the verdict.
type RankKS struct {
	Rank     int     `json:"rank"`
	Stat     float64 `json:"stat"`
	Crit     float64 `json:"crit"`
	Rejected bool    `json:"rejected"`
}

// WindowRecord is the decision provenance of one monitored window — the
// evidence behind the monitor's one-bit verdict, in the terms of the
// paper's §4: which region was tested at what group size n, how each
// peak rank's K-S test came out against the cAlpha threshold, and which
// state-machine transition the monitor took.
type WindowRecord struct {
	// Window is the STS index within the monitored stream.
	Window int `json:"window"`
	// TimeSec is the window's start time within its run.
	TimeSec float64 `json:"time_sec"`
	// Region is the region under test when the window arrived (before
	// any transition this window caused).
	Region int `json:"region"`
	// Tested reports whether a K-S evaluation ran: false during the
	// post-switch warm-up and in blind regions.
	Tested bool `json:"tested"`
	// GroupSize is the number of windows jointly tested (the n of §4.2);
	// zero when untested.
	GroupSize int `json:"group_size"`
	// Burst marks evidence from the short-horizon burst test rather than
	// the region's trained group size.
	Burst bool `json:"burst,omitempty"`
	// CAlpha is the Kolmogorov inverse at the model's confidence level;
	// each rank's Crit is CAlpha scaled by its sample sizes.
	CAlpha float64 `json:"c_alpha"`
	// BestMode is the index of the best-matching training mode (-1 when
	// untested).
	BestMode int `json:"best_mode"`
	// RejFrac is the best mode's rank-rejection fraction (the region
	// test statistic, in [0,1]).
	RejFrac float64 `json:"rej_frac"`
	// CountOut reports that the peak-count/energy bounds test failed,
	// which rejects before any rank is tested.
	CountOut bool `json:"count_out,omitempty"`
	// Ranks holds the per-rank K-S evidence for the best mode.
	Ranks []RankKS `json:"ranks,omitempty"`
	// RejectedRanks lists the rank indices that rejected (redundant with
	// Ranks, kept flat for quick reading of an alarm dump).
	RejectedRanks []int `json:"rejected_ranks,omitempty"`
	// Rejected / Flagged mirror the monitor's WindowOutcome.
	Rejected bool `json:"rejected"`
	Flagged  bool `json:"flagged"`
	// Streak is the consecutive-rejection streak after this window.
	Streak int `json:"streak"`
	// Transition is the state-machine edge taken (TransStay, TransSwitch,
	// TransRelock, TransBlind).
	Transition string `json:"transition"`
	// SwitchTo is the destination region of a switch/relock (-1 if none).
	SwitchTo int `json:"switch_to"`
	// Reported is true when this window fired an anomaly report.
	Reported bool `json:"reported,omitempty"`
}

// CopyEvidence deep-copies the evaluation evidence of src into r,
// leaving the window identity fields (Window, TimeSec, Region,
// Transition, ...) alone. The monitor uses it to promote burst-test
// evidence into the decision record when the short-horizon test is the
// decisive one.
func (r *WindowRecord) CopyEvidence(src *WindowRecord) {
	r.Tested = src.Tested
	r.GroupSize = src.GroupSize
	r.Burst = src.Burst
	r.BestMode = src.BestMode
	r.RejFrac = src.RejFrac
	r.CountOut = src.CountOut
	r.Ranks = append(r.Ranks[:0], src.Ranks...)
	r.RejectedRanks = append(r.RejectedRanks[:0], src.RejectedRanks...)
}

// AlarmDump is the flight recorder's evidence package for one fired
// report: the alarm header plus the buffered window records leading up
// to (and including) the alarm window.
type AlarmDump struct {
	// Alarm counts fired reports since the recorder was created (1 = the
	// first).
	Alarm int `json:"alarm"`
	// Window / TimeSec / Region / Streak identify the firing window.
	Window  int     `json:"window"`
	TimeSec float64 `json:"time_sec"`
	Region  int     `json:"region"`
	Streak  int     `json:"streak"`
	// RejectedRanks is the firing window's rejecting rank list, repeated
	// from its record for quick inspection.
	RejectedRanks []int `json:"rejected_ranks"`
	// Records is the flight-recorder contents, oldest first; the last
	// entry is the alarm window itself.
	Records []WindowRecord `json:"records"`
}

// DefaultFlightDepth is the number of window records the flight
// recorder retains when no depth is given.
const DefaultFlightDepth = 64

// FlightRecorder keeps the last N window records in a ring and
// snapshots them into an AlarmDump when a report fires, so a detection
// always comes with its evidence attached. A nil *FlightRecorder keeps
// nothing: Record and Alarm are no-ops. The monitor builds its window
// record the same way whether or not a recorder is attached.
type FlightRecorder struct {
	mu      sync.Mutex
	depth   int
	ring    []WindowRecord
	seen    int
	alarms  int
	last    *AlarmDump
	onAlarm func(*AlarmDump)
}

// NewFlightRecorder creates a recorder retaining the last depth window
// records (DefaultFlightDepth if depth <= 0).
func NewFlightRecorder(depth int) *FlightRecorder {
	if depth <= 0 {
		depth = DefaultFlightDepth
	}
	return &FlightRecorder{depth: depth, ring: make([]WindowRecord, 0, depth)}
}

// Record buffers one window's provenance. The record is deep-copied
// (the monitor reuses its scratch record and slices across windows)
// into the ring slot's own slices, so once the ring has wrapped a
// record costs no allocation. Safe on a nil recorder.
func (f *FlightRecorder) Record(rec *WindowRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.ring) < f.depth {
		f.ring = append(f.ring, WindowRecord{})
	}
	slot := &f.ring[f.seen%f.depth]
	ranks, rejected := slot.Ranks[:0], slot.RejectedRanks[:0]
	*slot = *rec
	slot.Ranks = append(ranks, rec.Ranks...)
	slot.RejectedRanks = append(rejected, rec.RejectedRanks...)
	f.seen++
}

// recentLocked returns deep copies of the buffered records,
// oldest-first. Caller holds f.mu. The ring's slices are reused by later
// records, so a snapshot must not share them; empty slices copy as nil.
func (f *FlightRecorder) recentLocked() []WindowRecord {
	out := make([]WindowRecord, 0, len(f.ring))
	start := 0
	if f.seen > f.depth {
		start = f.seen % f.depth
	}
	for i := 0; i < len(f.ring); i++ {
		r := f.ring[(start+i)%len(f.ring)]
		r.Ranks = append([]RankKS(nil), r.Ranks...)
		r.RejectedRanks = append([]int(nil), r.RejectedRanks...)
		out = append(out, r)
	}
	return out
}

// Recent returns a copy of the buffered window records, oldest first.
// Nil-safe (returns nil).
func (f *FlightRecorder) Recent() []WindowRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.recentLocked()
}

// Seen returns how many records were ever pushed (including those the
// ring has since evicted).
func (f *FlightRecorder) Seen() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen
}

// SetOnAlarm installs a hook invoked with each alarm dump right after
// it is taken (outside the recorder's lock). The fleet server uses it
// to journal and stream alarms the moment they fire; the dump is
// immutable, so the hook may retain it. Safe on a nil recorder (no-op).
// Not safe to call concurrently with Alarm; install before feeding.
func (f *FlightRecorder) SetOnAlarm(fn func(*AlarmDump)) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.onAlarm = fn
	f.mu.Unlock()
}

// Alarm snapshots the ring into the last-alarm dump. The monitor calls
// it right after Record-ing the firing window, so the dump's final
// record is the alarm window itself. Safe on a nil recorder.
func (f *FlightRecorder) Alarm(window int, timeSec float64, region, streak int, rejectedRanks []int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.alarms++
	dump := &AlarmDump{
		Alarm:         f.alarms,
		Window:        window,
		TimeSec:       timeSec,
		Region:        region,
		Streak:        streak,
		RejectedRanks: append([]int(nil), rejectedRanks...),
		Records:       f.recentLocked(),
	}
	f.last = dump
	hook := f.onAlarm
	f.mu.Unlock()
	if hook != nil {
		hook(dump)
	}
}

// Alarms returns how many alarm dumps were taken.
func (f *FlightRecorder) Alarms() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.alarms
}

// LastAlarm returns the most recent alarm dump, or nil if no report has
// fired. The dump is immutable once taken.
func (f *FlightRecorder) LastAlarm() *AlarmDump {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last
}

// LastAlarmJSON renders the last alarm dump as indented JSON ("null"
// when no alarm has fired).
func (f *FlightRecorder) LastAlarmJSON() ([]byte, error) {
	return json.MarshalIndent(f.LastAlarm(), "", "  ")
}
