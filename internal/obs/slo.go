package obs

import (
	"sync"
	"time"
)

// SLO health verdicts, ordered by severity.
const (
	// HealthReady: both burn-rate windows are inside budget.
	HealthReady = "ready"
	// HealthDegraded: the short window is burning error budget faster
	// than sustainable — latency is slipping but the node still serves.
	HealthDegraded = "degraded"
	// HealthOverloaded: the short window burn is far over budget; a
	// coordinator should stop routing new sessions here.
	HealthOverloaded = "overloaded"
	// HealthDraining: the server is in graceful shutdown.
	HealthDraining = "draining"
)

// The SLO's fixed shape.
const (
	// sloObjective is the target fraction of events inside the budget.
	sloObjective = 0.99
	// sloSlotLen is the ring granularity.
	sloSlotLen = 5 * time.Second
	// sloDegradedBurn is the burn-rate threshold for the degraded
	// verdict. Burn rate 1 means the error budget is being consumed
	// exactly as fast as the objective allows.
	sloDegradedBurn = 1
)

// SLOConfig configures a latency SLO burn-rate tracker.
type SLOConfig struct {
	// Budget is the per-event latency budget (default 500ms — the p99
	// frame-to-verdict bound from BENCH_fleet.json).
	Budget time.Duration
	// ShortWindow / LongWindow are the two burn-rate horizons
	// (defaults 5m / 1h). LongWindow should be a multiple of the 5s
	// slot and is raised to at least ShortWindow.
	ShortWindow, LongWindow time.Duration
	// OverloadBurn is the short-window burn-rate threshold for the
	// overloaded verdict. Values at or below the degraded threshold
	// (burn 1) mean 10.
	OverloadBurn float64
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Budget <= 0 {
		c.Budget = 500 * time.Millisecond
	}
	if c.ShortWindow <= 0 {
		c.ShortWindow = 5 * time.Minute
	}
	if c.LongWindow <= 0 {
		c.LongWindow = time.Hour
	}
	if c.LongWindow < c.ShortWindow {
		c.LongWindow = c.ShortWindow
	}
	if c.OverloadBurn <= sloDegradedBurn {
		c.OverloadBurn = 10
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// sloSlot is one time slot's good/bad counts. epoch identifies which
// slot-aligned time the entry currently holds, so stale ring entries
// are detected lazily instead of by a background sweeper.
type sloSlot struct {
	epoch     int64
	good, bad int64
}

// SLOTracker measures a latency SLO as multi-window burn rates, the
// SRE-workbook alerting scheme: each recorded event is good (within
// Budget) or bad, counts land in a ring of 5s time slots, and
// Health compares the short- and long-window bad fractions against the
// objective's error budget. A nil *SLOTracker no-ops. Record holds a
// mutex for a few adds — cheap enough for every frame-to-verdict
// event, and allocation-free.
type SLOTracker struct {
	cfg   SLOConfig
	mu    sync.Mutex
	slots []sloSlot
}

// NewSLOTracker creates a tracker (see SLOConfig for defaults).
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	cfg = cfg.withDefaults()
	n := int(cfg.LongWindow / sloSlotLen)
	if n < 1 {
		n = 1
	}
	return &SLOTracker{cfg: cfg, slots: make([]sloSlot, n)}
}

// Budget returns the configured per-event latency budget (0 on nil).
func (s *SLOTracker) Budget() time.Duration {
	if s == nil {
		return 0
	}
	return s.cfg.Budget
}

// Record classifies one event latency against the budget.
// Allocation-free; safe on a nil tracker.
func (s *SLOTracker) Record(latency time.Duration) {
	if s == nil {
		return
	}
	epoch := s.cfg.Now().UnixNano() / int64(sloSlotLen)
	s.mu.Lock()
	sl := &s.slots[int(epoch%int64(len(s.slots)))]
	if sl.epoch != epoch {
		sl.epoch, sl.good, sl.bad = epoch, 0, 0
	}
	if latency <= s.cfg.Budget {
		sl.good++
	} else {
		sl.bad++
	}
	s.mu.Unlock()
}

// SLOWindow is one horizon's aggregate in a health report.
type SLOWindow struct {
	// Window is the horizon length in seconds.
	Window float64 `json:"window_sec"`
	// Good / Bad are the event counts inside the horizon.
	Good int64 `json:"good"`
	Bad  int64 `json:"bad"`
	// BadFrac is Bad / (Good+Bad) (0 with no events).
	BadFrac float64 `json:"bad_frac"`
	// Burn is BadFrac divided by the error budget (1 - Objective):
	// burn 1 consumes the budget exactly at the sustainable rate.
	Burn float64 `json:"burn"`
}

// SLOHealth is the tracker's verdict.
type SLOHealth struct {
	// Status is HealthReady, HealthDegraded or HealthOverloaded (a
	// fleet server's HealthStatus reports HealthDraining over it).
	Status string `json:"status"`
	// BudgetMillis is the per-event latency budget.
	BudgetMillis float64 `json:"budget_ms"`
	// Objective is the target in-budget fraction.
	Objective float64 `json:"objective"`
	// Short and Long are the two burn-rate windows.
	Short SLOWindow `json:"short"`
	Long  SLOWindow `json:"long"`
}

// window aggregates the slots inside the horizon ending now. Caller
// holds s.mu.
func (s *SLOTracker) windowLocked(nowEpoch int64, horizon time.Duration) SLOWindow {
	n := int64(horizon / sloSlotLen)
	if n < 1 {
		n = 1
	}
	w := SLOWindow{Window: horizon.Seconds()}
	for e := nowEpoch - n + 1; e <= nowEpoch; e++ {
		if e < 0 {
			continue
		}
		sl := &s.slots[int(e%int64(len(s.slots)))]
		if sl.epoch == e {
			w.Good += sl.good
			w.Bad += sl.bad
		}
	}
	if tot := w.Good + w.Bad; tot > 0 {
		w.BadFrac = float64(w.Bad) / float64(tot)
	}
	// The error budget is a float64 subtraction at run time
	// (0.010000000000000009), not the exact 0.01 a constant expression
	// would fold to, so a burn rate sits on the same side of each
	// threshold as it always has.
	objective := float64(sloObjective)
	w.Burn = w.BadFrac / (1 - objective)
	return w
}

// Health computes the current verdict. Safe on a nil tracker (returns
// a ready report with zero windows).
func (s *SLOTracker) Health() SLOHealth {
	if s == nil {
		return SLOHealth{Status: HealthReady}
	}
	nowEpoch := s.cfg.Now().UnixNano() / int64(sloSlotLen)
	s.mu.Lock()
	short := s.windowLocked(nowEpoch, s.cfg.ShortWindow)
	long := s.windowLocked(nowEpoch, s.cfg.LongWindow)
	s.mu.Unlock()
	h := SLOHealth{
		Status:       HealthReady,
		BudgetMillis: float64(s.cfg.Budget) / float64(time.Millisecond),
		Objective:    sloObjective,
		Short:        short,
		Long:         long,
	}
	// Multi-window gating: the short window must be burning AND the
	// long window must confirm it is not a transient blip — unless the
	// short burn is so extreme (overload) that waiting for the long
	// window to catch up would delay re-homing.
	switch {
	case short.Burn >= s.cfg.OverloadBurn:
		h.Status = HealthOverloaded
	case short.Burn >= sloDegradedBurn && long.Burn >= sloDegradedBurn:
		h.Status = HealthDegraded
	case short.Burn >= sloDegradedBurn:
		// Short-window burn without long-window confirmation still
		// reports degraded: the tracker usually starts cold (long
		// window empty), and a fresh overload must not hide behind an
		// empty hour.
		if long.Good+long.Bad == short.Good+short.Bad {
			h.Status = HealthDegraded
		}
	}
	return h
}
