package stream

import (
	"reflect"
	"testing"

	"eddie/internal/inject"
	"eddie/internal/metrics"
	"eddie/internal/obs"
	"eddie/internal/pipeline"
	"eddie/internal/pipeline/pipetest"
)

// hookRun is one of the tiny fixture's monitored runs.
type hookRun struct {
	name string
	run  *pipeline.Run
}

// hookRuns collects the tiny fixture's clean and in-loop-injected runs,
// in that order.
func hookRuns(t *testing.T, f *pipetest.F) []hookRun {
	t.Helper()
	injector := &inject.InLoop{
		Header: f.Machine.Nests[0].Header, Instrs: 8, MemOps: 4,
		Contamination: 1, Seed: 9,
	}
	var runs []hookRun
	for _, r := range []struct {
		name string
		inj  inject.Injector
	}{{"clean", nil}, {"injected", injector}} {
		run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, 600, r.inj)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, hookRun{r.name, run})
	}
	return runs
}

// TestDetectorHookAttachPoint pins one attach point per hook: the
// stream config's Metrics and Flight reach the monitor even when the
// monitor config carries hooks of its own, which the detector replaces.
func TestDetectorHookAttachPoint(t *testing.T) {
	f := pipetest.Tiny(t)
	run := hookRuns(t, f)[1].run
	statsA, metricsB := metrics.NewDetector(), metrics.NewDetector()
	flightA, flightB := obs.NewFlightRecorder(0), obs.NewFlightRecorder(0)
	cfg := streamCfg(f.Config)
	cfg.Monitor.Stats = statsA
	cfg.Monitor.Flight = flightA
	cfg.Metrics = metricsB
	cfg.Flight = flightB
	d, err := NewDetector(f.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Feed(run.Signal)
	if d.Windows() == 0 {
		t.Fatal("no windows processed")
	}
	if got := metricsB.KSTests.Value(); got == 0 {
		t.Error("ks_tests = 0 in Config.Metrics, want the monitor's K-S decisions there")
	}
	if got := statsA.KSTests.Value(); got != 0 {
		t.Errorf("ks_tests = %d in the replaced Monitor.Stats, want 0", got)
	}
	if got := flightB.Seen(); got != d.Windows() {
		t.Errorf("Config.Flight saw %d records, want one per window (%d)", got, d.Windows())
	}
	if got := flightA.Seen(); got != 0 {
		t.Errorf("replaced Monitor.Flight saw %d records, want 0", got)
	}
}

// TestDetectorFlightKeepsDecisions checks that attaching a flight
// recorder changes nothing the monitor decides or counts: outcomes,
// reports, ks_tests and region_switches match a detector without one on
// the tiny fixture's clean and injected runs.
func TestDetectorFlightKeepsDecisions(t *testing.T) {
	f := pipetest.Tiny(t)
	for _, hr := range hookRuns(t, f) {
		run := hr.run
		t.Run(hr.name, func(t *testing.T) {
			type result struct {
				d *Detector
				m *metrics.Detector
			}
			feed := func(flight *obs.FlightRecorder) result {
				cfg := streamCfg(f.Config)
				cfg.Metrics = metrics.NewDetector()
				cfg.Flight = flight
				d, err := NewDetector(f.Model, cfg)
				if err != nil {
					t.Fatal(err)
				}
				d.Feed(run.Signal)
				return result{d, cfg.Metrics}
			}
			flight := obs.NewFlightRecorder(0)
			off, on := feed(nil), feed(flight)
			offMon, onMon := off.d.Monitor(), on.d.Monitor()
			if !reflect.DeepEqual(offMon.Outcomes, onMon.Outcomes) {
				t.Error("outcomes differ with a flight recorder attached")
			}
			if !reflect.DeepEqual(offMon.Reports, onMon.Reports) {
				t.Errorf("reports differ with a flight recorder attached: %v vs %v", offMon.Reports, onMon.Reports)
			}
			if a, b := off.m.KSTests.Value(), on.m.KSTests.Value(); a != b || a == 0 {
				t.Errorf("ks_tests %d without flight, %d with", a, b)
			}
			if a, b := off.m.RegionSwitches.Value(), on.m.RegionSwitches.Value(); a != b {
				t.Errorf("region_switches %d without flight, %d with", a, b)
			}
			if hr.name == "injected" && len(onMon.Reports) == 0 {
				t.Fatal("injected run fired no reports; the comparison is vacuous")
			}
			if got := flight.Alarms(); got != len(onMon.Reports) {
				t.Errorf("flight recorder took %d alarm dumps, want one per report (%d)", got, len(onMon.Reports))
			}
		})
	}
}
