package main

import (
	"fmt"
	"os"
	"testing"
	"time"

	"eddie/internal/metrics"
	"eddie/internal/obs"
)

// obsGatedBenches are regression-gated on ns/op AND must stay
// zero-alloc: these run on the fleet's per-frame hot path.
var obsGatedBenches = []string{"JournalEvent", "LogHistRecord", "SLORecord"}

// obsBenches builds the observability-plane micro-benchmarks: the
// journal append fast path, the latency histogram record, the SLO
// burn-rate record, and the (rare, allocation-tolerant) alarm append.
func obsBenches() ([]kernelBench, func(), error) {
	dir, err := os.MkdirTemp("", "eddie-obs-bench")
	if err != nil {
		return nil, nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }

	benches := []kernelBench{
		{"JournalEvent", 1, func(b *testing.B) {
			j, err := obs.OpenJournal(obs.JournalConfig{Dir: dir, Fsync: obs.FsyncNever})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j.Event("backpressure", "dev-bench", 7, "s03", "inbox full")
			}
		}},
		{"JournalAppendAlarm", 1, func(b *testing.B) {
			j, err := obs.OpenJournal(obs.JournalConfig{Dir: dir, Fsync: obs.FsyncNever})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			dump := &obs.AlarmDump{
				Window: 321, TimeSec: 1.234, Region: 2, Streak: 3,
				RejectedRanks: []int{0, 1, 4},
				Records:       make([]obs.WindowRecord, 16),
			}
			ev := &obs.JournalEvent{Type: "alarm", Device: "dev-bench", Session: 7, Shard: "s03", Alarm: dump}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j.AppendEvent(ev)
			}
		}},
		{"LogHistRecord", 1, func(b *testing.B) {
			h := metrics.NewRegistry().LogHist("bench_latency_ns")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Record(int64(1000 + i%100000))
			}
		}},
		{"SLORecord", 1, func(b *testing.B) {
			s := obs.NewSLOTracker(obs.SLOConfig{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Record(time.Duration(1000 + i%1000000))
			}
		}},
		{"EWMAGaugeObserve", 1, func(b *testing.B) {
			g := metrics.NewRegistry().FloatGauge("bench_drift")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.ObserveEWMA(float64(i%7)/7, metrics.DriftEWMAAlpha)
			}
		}},
	}
	return benches, cleanup, nil
}

// runObsBench times the observability plane and writes BENCH_obs.json.
// The per-frame instruments — journal lifecycle append, log-histogram
// record, SLO record — are gated two ways: they must stay zero-alloc and
// under 1µs/op absolutely, and within 20% of the checked-in baseline. A
// failed gate leaves the baseline file untouched.
func runObsBench(path string) error {
	benches, cleanup, err := obsBenches()
	if err != nil {
		return err
	}
	defer cleanup()

	out := runBenches(benches)
	var gates []gatedMetric[benchFile]
	for _, name := range obsGatedBenches {
		res := out.result(name)
		if res.AllocsPerOp != 0 {
			return fmt.Errorf("%s allocates (%d allocs/op): the steady-state observability path must be zero-alloc", name, res.AllocsPerOp)
		}
		if res.NsPerOp > 1000 {
			return fmt.Errorf("%s costs %.0f ns/op (>1µs/frame budget)", name, res.NsPerOp)
		}
		gates = append(gates, nsPerOp(name))
	}
	return writeGated(path, out, gates)
}
