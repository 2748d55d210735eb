package obs

import (
	"testing"
	"time"

	"eddie/internal/allocguard"
)

// fakeClock drives an SLOTracker deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func newTestSLO(c *fakeClock, cfg SLOConfig) *SLOTracker {
	cfg.Now = c.now
	return NewSLOTracker(cfg)
}

func TestSLOHealthReady(t *testing.T) {
	c := newFakeClock()
	s := newTestSLO(c, SLOConfig{})
	if h := s.Health(); h.Status != HealthReady {
		t.Fatalf("empty tracker: %s, want ready", h.Status)
	}
	for i := 0; i < 1000; i++ {
		s.Record(10 * time.Millisecond)
	}
	h := s.Health()
	if h.Status != HealthReady || h.Short.Good != 1000 || h.Short.Bad != 0 {
		t.Fatalf("all-good tracker: %+v", h)
	}
	if h.BudgetMillis != 500 || h.Objective != 0.99 {
		t.Fatalf("defaults not applied: %+v", h)
	}
}

func TestSLOHealthDegradedAndOverloaded(t *testing.T) {
	c := newFakeClock()
	s := newTestSLO(c, SLOConfig{})
	// 5% bad = burn 5 with a 1% error budget: degraded, not overloaded.
	for i := 0; i < 1000; i++ {
		lat := 10 * time.Millisecond
		if i%20 == 0 {
			lat = time.Second
		}
		s.Record(lat)
	}
	if h := s.Health(); h.Status != HealthDegraded {
		t.Fatalf("5%% bad: %s (short burn %.1f), want degraded", h.Status, h.Short.Burn)
	}
	// All-bad = burn 100: overloaded.
	s2 := newTestSLO(c, SLOConfig{})
	for i := 0; i < 100; i++ {
		s2.Record(2 * time.Second)
	}
	if h := s2.Health(); h.Status != HealthOverloaded {
		t.Fatalf("all bad: %s, want overloaded", h.Status)
	}
}

// TestSLOShortWindowRecovers: after the bad burst ages past the short
// window (but inside the long one), health returns to ready — the
// short window gates the verdict.
func TestSLOShortWindowRecovers(t *testing.T) {
	c := newFakeClock()
	s := newTestSLO(c, SLOConfig{ShortWindow: time.Minute, LongWindow: 10 * time.Minute})
	for i := 0; i < 100; i++ {
		s.Record(2 * time.Second) // all bad
	}
	if h := s.Health(); h.Status != HealthOverloaded {
		t.Fatalf("fresh burst: %s, want overloaded", h.Status)
	}
	c.advance(2 * time.Minute)
	for i := 0; i < 1000; i++ {
		s.Record(time.Millisecond)
	}
	h := s.Health()
	if h.Status != HealthReady {
		t.Fatalf("after burst aged out: %s (short %+v long %+v)", h.Status, h.Short, h.Long)
	}
	if h.Long.Bad != 100 {
		t.Fatalf("long window lost the burst: %+v", h.Long)
	}
}

// TestSLOSlotExpiry: events older than the long window vanish entirely
// (the ring reuses slots lazily).
func TestSLOSlotExpiry(t *testing.T) {
	c := newFakeClock()
	s := newTestSLO(c, SLOConfig{ShortWindow: time.Minute, LongWindow: 5 * time.Minute})
	s.Record(2 * time.Second)
	c.advance(6 * time.Minute)
	s.Record(time.Millisecond)
	h := s.Health()
	if h.Long.Bad != 0 || h.Long.Good != 1 {
		t.Fatalf("expired slot still counted: %+v", h.Long)
	}
}

// TestSLORecordZeroAlloc guards Record's whole path, the slot rotation
// included: each measured pass records 64 events 100 ms apart on the
// test clock, alternating good and bad, so every pass crosses at least
// one 5 s slot boundary and resets a stale slot.
func TestSLORecordZeroAlloc(t *testing.T) {
	c := newFakeClock()
	s := newTestSLO(c, SLOConfig{})
	allocguard.Zero(t, "SLOTracker.Record", 20, 64, func(i int) {
		c.advance(100 * time.Millisecond)
		s.Record(time.Duration(i%2) * time.Second)
	})
}

func TestSLONil(t *testing.T) {
	var s *SLOTracker
	s.Record(time.Second) // no panic
	if h := s.Health(); h.Status != HealthReady {
		t.Fatalf("nil tracker health: %s", h.Status)
	}
	if s.Budget() != 0 {
		t.Fatal("nil Budget != 0")
	}
}

func TestSLOConfigDefaults(t *testing.T) {
	cfg := SLOConfig{}.withDefaults()
	if cfg.Budget != 500*time.Millisecond || cfg.ShortWindow != 5*time.Minute ||
		cfg.LongWindow != time.Hour || cfg.OverloadBurn != 10 {
		t.Fatalf("defaults: %+v", cfg)
	}
	// LongWindow clamps up to ShortWindow.
	cfg = SLOConfig{ShortWindow: time.Hour, LongWindow: time.Minute}.withDefaults()
	if cfg.LongWindow != time.Hour {
		t.Fatalf("LongWindow not clamped: %v", cfg.LongWindow)
	}
}

func BenchmarkSLORecord(b *testing.B) {
	s := NewSLOTracker(SLOConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Record(time.Duration(i&1023) * time.Millisecond)
	}
}
