package core

import (
	"math"
	"math/rand"
	"testing"
)

// trainSmall builds a model over the two-region synthetic machine.
func trainSmall(t *testing.T) (*Model, *cfgMachine) {
	t.Helper()
	m := testMachine(t)
	model, err := Train("synthetic", m, synthTrainingRuns(m, 8, 100e3, 250e3), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	return model, m
}

// anomalousSTS yields windows that match no region (peaks at a foreign
// base frequency and twice the usual count).
func anomalousSTS(r *rand.Rand, n int) []STS {
	out := make([]STS, n)
	for i := range out {
		out[i] = synthSTS(r, 0, 37e3, 12, float64(i)*0.001)
	}
	return out
}

// TestReportThresholdSemantics: the paper tolerates up to reportThreshold
// consecutive rejections; the report fires on the next one.
func TestReportThresholdSemantics(t *testing.T) {
	model, m := trainSmall(t)
	r := rand.New(rand.NewSource(5))

	mon, err := NewMonitor(model, DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Warm up with matching region-0 windows.
	for i := 0; i < 30; i++ {
		s := synthSTS(r, m.LoopRegionOf(0), 100e3, 5, float64(i)*0.001)
		if mon.Observe(&s) {
			t.Fatalf("report during clean warm-up at %d", i)
		}
	}
	// Feed anomalous windows; the report must fire on a streak longer
	// than the threshold, not at the first rejection.
	bad := anomalousSTS(r, 12)
	reportAt := -1
	firstRejectAt := -1
	for i := range bad {
		fired := mon.Observe(&bad[i])
		if firstRejectAt < 0 && mon.Outcomes[len(mon.Outcomes)-1].Rejected {
			firstRejectAt = i
		}
		if fired && reportAt < 0 {
			reportAt = i
		}
	}
	if reportAt < 0 {
		t.Fatal("anomalous stream never reported")
	}
	if firstRejectAt < 0 {
		t.Fatal("anomalous stream never rejected")
	}
	if gap := reportAt - firstRejectAt; gap < reportThreshold {
		t.Errorf("report after %d rejections; threshold %d must be tolerated first", gap+1, reportThreshold)
	}
}

// TestGroupSizeScaleChangesLatency: a larger scale means more windows are
// needed before the monitor can test at all.
func TestGroupSizeScaleChangesLatency(t *testing.T) {
	model, m := trainSmall(t)

	firstRejection := func(scale float64) int {
		r := rand.New(rand.NewSource(6))
		mc := DefaultMonitorConfig()
		mc.GroupSizeScale = scale
		mon, err := NewMonitor(model, mc)
		if err != nil {
			t.Fatal(err)
		}
		mon.burst = math.MaxInt // isolate the scaled main test
		// Matching region-0 stream whose peaks drift 8% after window 40:
		// a shift only a full-size group can resolve.
		for i := 0; i < 40; i++ {
			s := synthSTS(r, m.LoopRegionOf(0), 100e3, 5, float64(i)*0.001)
			mon.Observe(&s)
		}
		for i := 40; i < 200; i++ {
			s := synthSTS(r, m.LoopRegionOf(0), 92e3, 5, float64(i)*0.001)
			mon.Observe(&s)
			if mon.Outcomes[len(mon.Outcomes)-1].Rejected {
				return i
			}
		}
		return 1 << 30
	}
	fast := firstRejection(1)
	slow := firstRejection(3)
	if fast >= 1<<30 {
		t.Fatal("scale 1 never rejected the shifted stream")
	}
	if slow < fast {
		t.Errorf("3x group size rejected at window %d, before 1x at %d", slow, fast)
	}
}

// TestMonitorOutcomesAlignWithObservations: one outcome per Observe call,
// in order.
func TestMonitorOutcomesAlignWithObservations(t *testing.T) {
	model, m := trainSmall(t)
	mon, err := NewMonitor(model, DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	run := synthRun(r, m, 100e3, 250e3)
	for i := range run {
		mon.Observe(&run[i])
		if len(mon.Outcomes) != i+1 {
			t.Fatalf("after %d observations: %d outcomes", i+1, len(mon.Outcomes))
		}
	}
	// Reports reference valid windows.
	for _, rep := range mon.Reports {
		if rep.Window < 0 || rep.Window >= len(run) {
			t.Errorf("report window %d out of range", rep.Window)
		}
	}
}

// TestMonitorRecoversAfterAnomaly: once an anomalous episode ends, the
// monitor re-locks and stops flagging.
func TestMonitorRecoversAfterAnomaly(t *testing.T) {
	model, m := trainSmall(t)
	mon, err := NewMonitor(model, DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	var stream []STS
	for i := 0; i < 40; i++ {
		stream = append(stream, synthSTS(r, m.LoopRegionOf(0), 100e3, 5, 0))
	}
	stream = append(stream, anomalousSTS(r, 20)...)
	for i := 0; i < 60; i++ {
		stream = append(stream, synthSTS(r, m.LoopRegionOf(0), 100e3, 5, 0))
	}
	for i := range stream {
		mon.Observe(&stream[i])
	}
	if len(mon.Reports) == 0 {
		t.Fatal("anomalous episode not reported")
	}
	// The tail (last 20 windows, well past the episode) must be unflagged.
	for i := len(stream) - 20; i < len(stream); i++ {
		if mon.Outcomes[i].Flagged {
			t.Errorf("window %d still flagged long after the episode ended", i)
		}
	}
}

// TestMonitorCurrentRegion tracks the public region estimate.
func TestMonitorCurrentRegion(t *testing.T) {
	model, m := trainSmall(t)
	mon, err := NewMonitor(model, DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	run := synthRun(r, m, 100e3, 250e3)
	for i := range run {
		mon.Observe(&run[i])
	}
	if got := mon.CurrentRegion(); got != m.LoopRegionOf(1) {
		t.Errorf("final region estimate %v, want loop region 1", got)
	}
}

// BenchmarkMonitorObserve measures monitoring throughput in windows/sec —
// the budget a deployed receiver has per STS.
func BenchmarkMonitorObserve(b *testing.B) {
	m, err := machineBuild(buildBenchProgram())
	if err != nil {
		b.Fatal(err)
	}
	model, err := Train("bench", m, synthTrainingRuns(m, 8, 100e3, 250e3), DefaultTrainConfig())
	if err != nil {
		b.Fatal(err)
	}
	mon, err := NewMonitor(model, DefaultMonitorConfig())
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	windows := make([]STS, 256)
	for i := range windows {
		windows[i] = synthSTS(r, m.LoopRegionOf(0), 100e3, 5, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.Observe(&windows[i%len(windows)])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "windows/s")
}

// buildBenchProgram mirrors testMachine's program without needing a *testing.T.
func buildBenchProgram() *programT {
	b := builderNew("bench", 4)
	entry := b.NewBlock("entry")
	h1 := b.NewBlock("h1")
	b1 := b.NewBlock("b1")
	mid := b.NewBlock("mid")
	h2 := b.NewBlock("h2")
	b2 := b.NewBlock("b2")
	exit := b.NewBlock("exit")
	entry.Li(1, 10).Li(0, 0)
	entry.Jump(h1)
	h1.Branch(condGT, 1, 0, b1, mid)
	b1.SubI(1, 1, 1)
	b1.Jump(h1)
	mid.Li(1, 10)
	mid.Jump(h2)
	h2.Branch(condGT, 1, 0, b2, exit)
	b2.SubI(1, 1, 1)
	b2.Jump(h2)
	exit.Halt()
	return b.Build()
}
