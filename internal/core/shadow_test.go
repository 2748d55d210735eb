package core_test

import (
	"testing"

	"eddie/internal/core"
	"eddie/internal/pipeline"
	"eddie/internal/pipeline/pipetest"
)

// TestAdaptShadowBytes measures what an adaptive session holds of its
// own. A dijkstra model with 25 training runs (the full Table 1 model's
// mode count) monitors one input's clean run three times over, which
// visits every testable region. Copying every mode reference and both
// side samples on each region's first visit would hold eager bytes; the
// shadows, which copy a mode only when it is first taught, must hold at
// least 5x fewer.
func TestAdaptShadowBytes(t *testing.T) {
	f := pipetest.Train(t, "dijkstra", pipetest.TinyConfig(), 25)
	run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, 900, nil)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := core.DefaultMonitorConfig()
	mcfg.Adapt = core.AdaptConfig{Enabled: true}
	mon, err := core.NewMonitor(f.Model, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		for i := range run.STS {
			mon.Observe(&run.STS[i])
		}
	}

	eager, testable := 0, 0
	for _, id := range f.Model.RegionIDs() {
		rm := f.Model.Regions[id]
		if !rm.Testable() {
			continue
		}
		testable++
		eager += 8 * (rm.Counts.N + rm.Energies.N)
		for _, md := range rm.Modes {
			for _, r := range md.Ref {
				eager += 24 + 8*len(r)
			}
		}
	}
	shadow := mon.AdaptShadowBytes()
	t.Logf("shadow %d B against an eager copy of %d B (%d regions, %d updates)", shadow, eager, testable, mon.AdaptUpdates())
	if got := mon.AdaptShadowRegions(); got < testable {
		t.Fatalf("stream built %d shadows for %d testable regions", got, testable)
	}
	if mon.AdaptUpdates() == 0 {
		t.Fatal("no update admitted; the stream taught no mode")
	}
	if shadow*5 > eager {
		t.Errorf("shadows hold %d B, more than a fifth of the eager copy's %d B", shadow, eager)
	}
}
