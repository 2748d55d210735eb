package stream

import (
	"reflect"
	"testing"

	"eddie/internal/core"
	"eddie/internal/dsp"
	"eddie/internal/inject"
	"eddie/internal/obs"
	"eddie/internal/pipeline"
	"eddie/internal/pipeline/pipetest"
)

// differentialCase is one capture of the offline-vs-stream differential
// tables.
type differentialCase struct {
	name    string
	inj     inject.Injector
	denoise dsp.DenoiseConfig
}

// differentialCases returns the clean and in-loop-injected captures, each
// reduced without and with the subspace denoiser.
func differentialCases(f *pipetest.F) []differentialCase {
	injector := &inject.InLoop{
		Header: f.Machine.Nests[0].Header, Instrs: 8, MemOps: 4,
		Contamination: 0.5, Seed: 3,
	}
	denoise := dsp.DenoiseConfig{Rank: 5, Block: 16, Stride: 4, Seed: 11}
	return []differentialCase{
		{"clean", nil, dsp.DenoiseConfig{}},
		{"injected", injector, dsp.DenoiseConfig{}},
		{"clean denoised", nil, denoise},
		{"injected denoised", injector, denoise},
	}
}

// differentialRun is one capture reduced and monitored on both paths.
type differentialRun struct {
	offSTS, strSTS       []core.STS
	offMon, strMon       *core.Monitor
	offFlight, strFlight *obs.FlightRecorder
	strWindows           int
}

// runDifferential collects the case's capture and runs it through the
// offline reduction and sample by sample, in awkward chunk sizes, through
// the streaming detector. Both paths keep every flight-recorder record.
//
// Both paths reduce windows through one core.Frontend; what the
// differential tests pin is everything around it: the stream's hop
// buffering against the offline hop-by-hop walk, chunking, timestamps,
// the causal denoiser's order, and the monitor fed by each. The stream
// runs with its DC blocker disabled on the pre-detrended signal — the
// EWMA DC blocker is the one intentional difference from the offline
// global-mean detrend.
func runDifferential(t *testing.T, f *pipetest.F, tc differentialCase) *differentialRun {
	t.Helper()
	run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, 800, tc.inj)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := f.Config
	pcfg.Denoise = tc.denoise
	r := &differentialRun{}

	// Offline path: the exact reduction CollectRun runs, under the case's
	// denoise configuration.
	r.offSTS, err = pipeline.Reduce(run.Signal, run.Sim, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	depth := len(r.offSTS) + 1 // keep every record
	r.offFlight = obs.NewFlightRecorder(depth)
	mc := core.DefaultMonitorConfig()
	mc.Flight = r.offFlight
	r.offMon, err = pipeline.Monitor(f.Model, r.offSTS, mc)
	if err != nil {
		t.Fatal(err)
	}

	// Streaming path. The Tap captures the produced STS sequence (copying
	// the reused PeakFreqs slice).
	r.strFlight = obs.NewFlightRecorder(depth)
	cfg := streamCfg(pcfg)
	cfg.DisableDCBlock = true
	cfg.Flight = r.strFlight
	cfg.Tap = func(sts *core.STS) {
		c := *sts
		c.PeakFreqs = append([]float64(nil), sts.PeakFreqs...)
		r.strSTS = append(r.strSTS, c)
	}
	d, err := NewDetector(f.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	detrended := dsp.Detrend(run.Signal)
	for i := 0; i < len(detrended); {
		n := 251 + i%509 // varying odd chunk sizes
		if i+n > len(detrended) {
			n = len(detrended) - i
		}
		d.Feed(detrended[i : i+n])
		i += n
	}
	r.strMon = d.Monitor()
	r.strWindows = d.Windows()
	if n := len(r.offSTS); r.strWindows != n || len(r.strSTS) != n {
		t.Fatalf("window counts: offline %d, stream %d (tap %d)", n, r.strWindows, len(r.strSTS))
	}
	return r
}

// TestDifferentialOfflineVsStream asserts the offline reduction and the
// streaming detector agree bit for bit on the same capture: the same
// number of windows, the same STS sequence (peak frequencies, energies,
// timestamps) and the same monitor verdicts (per-window outcomes and
// reports).
func TestDifferentialOfflineVsStream(t *testing.T) {
	f := pipetest.Fixture(t)
	for _, tc := range differentialCases(f) {
		t.Run(tc.name, func(t *testing.T) {
			r := runDifferential(t, f, tc)
			for w := range r.offSTS {
				off, str := &r.offSTS[w], &r.strSTS[w]
				if off.TimeSec != str.TimeSec || off.Energy != str.Energy || !equalFloats(off.PeakFreqs, str.PeakFreqs) {
					t.Fatalf("window %d STS:\n offline %+v\n stream  %+v", w, *off, *str)
				}
				if r.offMon.Outcomes[w] != r.strMon.Outcomes[w] {
					t.Fatalf("window %d outcome: offline %+v stream %+v", w, r.offMon.Outcomes[w], r.strMon.Outcomes[w])
				}
			}
			if !reflect.DeepEqual(r.offMon.Reports, r.strMon.Reports) {
				t.Fatalf("reports:\n offline %+v\n stream  %+v", r.offMon.Reports, r.strMon.Reports)
			}
			if tc.inj != nil && len(r.strMon.Reports) == 0 {
				t.Error("injected capture raised no report: the comparison never covered an alarm")
			}
		})
	}
}

// TestDifferentialProvenance extends the offline-vs-stream differential
// contract to the decision provenance: the flight-recorder records
// produced by the offline monitor and by the streaming detector must be
// identical field for field — same regions, group sizes, per-rank K-S
// statistics, transitions — and so must the alarm counts and the last
// alarm dump. The provenance is derived from the same decision
// arithmetic on both paths, so any divergence means capture has drifted
// from (or worse, influenced) the decisions themselves.
func TestDifferentialProvenance(t *testing.T) {
	f := pipetest.Fixture(t)
	for _, tc := range differentialCases(f) {
		t.Run(tc.name, func(t *testing.T) {
			r := runDifferential(t, f, tc)
			offRecs, strRecs := r.offFlight.Recent(), r.strFlight.Recent()
			if n := r.strWindows; len(offRecs) != n || len(strRecs) != n {
				t.Fatalf("flight records: offline %d, stream %d, windows %d", len(offRecs), len(strRecs), n)
			}
			for w := range offRecs {
				if !reflect.DeepEqual(offRecs[w], strRecs[w]) {
					t.Fatalf("window %d provenance:\n offline %+v\n stream  %+v", w, offRecs[w], strRecs[w])
				}
			}
			if r.offFlight.Alarms() != r.strFlight.Alarms() || !reflect.DeepEqual(r.offFlight.LastAlarm(), r.strFlight.LastAlarm()) {
				t.Fatalf("alarms: offline %d %+v, stream %d %+v",
					r.offFlight.Alarms(), r.offFlight.LastAlarm(), r.strFlight.Alarms(), r.strFlight.LastAlarm())
			}
			if tc.inj != nil && r.strFlight.LastAlarm() == nil {
				t.Error("injected capture left no alarm dump: the comparison never covered an alarm")
			}
		})
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
