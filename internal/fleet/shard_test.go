package fleet

import (
	"bytes"
	"fmt"
	"testing"

	"eddie/internal/allocguard"
	"eddie/internal/core"
	"eddie/internal/dsp"
	"eddie/internal/metrics"
	"eddie/internal/obs"
	"eddie/internal/pipeline"
	"eddie/internal/pipeline/pipetest"
	"eddie/internal/stream"
)

// TestShardIndexDeterministic pins that a device always lands on the
// same shard (its frames must stay ordered on one processor).
func TestShardIndexDeterministic(t *testing.T) {
	for _, n := range []int{1, 2, 4, 16} {
		for _, dev := range []string{"a", "dev-0", "sensor.rack12.slot3", "x_y-z.9"} {
			i := shardIndex(dev, n)
			if i < 0 || i >= n {
				t.Fatalf("shardIndex(%q, %d) = %d out of range", dev, n, i)
			}
			for r := 0; r < 3; r++ {
				if shardIndex(dev, n) != i {
					t.Fatalf("shardIndex(%q, %d) not deterministic", dev, n)
				}
			}
		}
	}
}

// TestShardIndexDistribution hashes a fleet's worth of systematic
// device names and checks no shard is starved or overloaded: FNV-1a
// over sequential names must spread within ±50% of the per-shard mean.
func TestShardIndexDistribution(t *testing.T) {
	const devices = 10000
	for _, shards := range []int{4, 8, 16} {
		counts := make([]int, shards)
		for i := 0; i < devices; i++ {
			counts[shardIndex(fmt.Sprintf("device-%05d", i), shards)]++
		}
		mean := devices / shards
		for i, c := range counts {
			if c < mean/2 || c > mean*3/2 {
				t.Errorf("shards=%d: shard %d holds %d devices (mean %d)", shards, i, c, mean)
			}
		}
	}
}

// TestSamplePoolRecycles checks size-class round-trips: a returned
// buffer is handed out again for the same class, retained capacity is
// bounded, and oversized buffers are never pooled.
func TestSamplePoolRecycles(t *testing.T) {
	p := samplePool{maxRetain: 1 << 20}
	b := p.get(1000)
	if len(b) != 1000 || cap(b) != 1024 {
		t.Fatalf("get(1000): len %d cap %d, want 1000/1024", len(b), cap(b))
	}
	p.put(b)
	b2 := p.get(600) // same class (1<<10): must reuse the pooled buffer
	if cap(b2) != 1024 || &b2[0] != &b[0] {
		t.Fatal("get after put did not recycle the class buffer")
	}

	huge := p.get(1 << 20) // above the top class: plain allocation
	if cap(huge) != 1<<20 {
		t.Fatalf("oversized get capacity %d", cap(huge))
	}
	p.put(huge)
	if p.retained != 0 {
		t.Fatalf("oversized put retained %d samples, want 0", p.retained)
	}

	p2 := samplePool{maxRetain: 1024}
	a := p2.get(1024)
	c := p2.get(1024)
	p2.put(a)
	p2.put(c) // over budget: dropped
	if p2.retained != 1024 {
		t.Fatalf("retained %d samples, want the 1024 budget", p2.retained)
	}
}

// detachedSession builds a session with a live detector but no socket,
// so tests and benchmarks can drive the decode → enqueue → batch-feed
// path directly (the test plays both the reader and the shard).
func detachedSession(tb testing.TB) (*session, []float64) {
	tb.Helper()
	f := pipetest.Tiny(tb)
	run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, 900, nil)
	if err != nil {
		tb.Fatal(err)
	}
	clean := dsp.Detrend(run.Signal)

	reg := metrics.NewRegistry()
	srv := &Server{cfg: Config{Models: StaticModels{"w": f.Model}}.withDefaults()}
	srv.reg = reg
	srv.cBackpress = reg.Counter("fleet_backpressure_stalls")
	srv.cReports = reg.Counter("fleet_reports")

	// A flight recorder as in handshake: every session has one, and
	// its alarm hook is the only path that publishes a report's alarm.
	flight := obs.NewFlightRecorder(0)
	det, err := stream.NewDetector(f.Model, stream.Config{
		STFT:  f.Config.STFT,
		Peaks: f.Config.Peaks,
		// Explicitly disabled: the steady-state zero-alloc guard below
		// covers the denoise-off fleet configuration, so a regression that
		// puts the disabled stage on the per-frame path fails loudly.
		Denoise:           dsp.DenoiseConfig{},
		Monitor:           core.DefaultMonitorConfig(),
		DisableDCBlock:    true,
		MaxHistoryWindows: 256,
		Metrics:           metrics.NewDetectorWith(reg),
		Flight:            flight,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if det.Denoiser() != nil {
		tb.Fatal("disabled denoise config built a denoiser")
	}
	ss := newSession(srv, 1, nil)
	ss.det = det
	ss.flight = flight
	flight.SetOnAlarm(ss.publishAlarm)
	ss.device, ss.workload = "dev-detached", "w"
	ss.dSamples = reg.Counter("fleet_device_samples/dev-detached")
	ss.dWindows = reg.Counter("fleet_device_windows/dev-detached")
	ss.dReports = reg.Counter("fleet_device_reports/dev-detached")
	ss.dSanitized = reg.Counter("fleet_device_sanitized/dev-detached")

	sh := newShard(srv, 0, "detached")
	sh.stop()
	<-sh.done // the test calls processTurn itself
	ss.sh = sh
	return ss, clean
}

// steadyStep is one reader+processor cycle of the hot path: read a
// frame into the reusable scratch, decode into a pooled buffer, enqueue
// under the backpressure cap, and run one batched processor turn.
func steadyStep(ss *session, r *bytes.Reader, frame []byte) error {
	r.Reset(frame)
	_, payload, scratch, err := readFrameInto(r, DefaultMaxFrameBytes, ss.readBuf)
	ss.readBuf = scratch
	if err != nil {
		return err
	}
	buf, err := DecodeSamples(payload, ss.getBuf(len(payload)/8))
	if err != nil {
		return err
	}
	if !ss.enqueue(buf) {
		return fmt.Errorf("enqueue refused")
	}
	ss.processTurn()
	return nil
}

// TestFleetSteadyStateZeroAlloc pins the tentpole's allocation
// guarantee: in steady state the per-frame sample path — frame read,
// sample decode, inbox enqueue, batched detector feed — performs zero
// heap allocations. Warmup runs the detector past its ring growth and
// history-trim onset and primes the frame scratch and sample pool.
func TestFleetSteadyStateZeroAlloc(t *testing.T) {
	ss, clean := detachedSession(t)
	const chunk = 1024
	frames := make([][]byte, 0, len(clean)/chunk)
	for i := 0; i+chunk <= len(clean); i += chunk {
		var buf bytes.Buffer
		if err := writeFrame(&buf, FrameSamples, EncodeSamples(clean[i:i+chunk])); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
	}
	r := bytes.NewReader(nil)
	// Warmup: ring growth, history-trim onset (MaxHistoryWindows=256),
	// pool and frame-scratch priming. Cycling the capture splices its
	// end onto its start, and a splice can produce a (legitimate)
	// report, so the warmup runs several laps and the measurement below
	// is aligned to cover one splice-free stretch.
	// Align so the splice (and the rejection streak it can trigger a few
	// windows later) resolves before measurement starts, and the next
	// splice lies beyond the measured stretch.
	i := 0
	for ; i < 300 || i%len(frames) != 6; i++ {
		if err := steadyStep(ss, r, frames[i%len(frames)]); err != nil {
			t.Fatal(err)
		}
	}
	if len(frames) < 40 {
		t.Fatalf("capture too short for a splice-free measurement window: %d frames", len(frames))
	}
	reportsBefore := ss.aReports.Load()
	// Four passes of eight frames: the 32 frames the stretch before the
	// next splice allows.
	allocguard.Zero(t, "steady-state sample path", 3, 8, func(int) {
		if err := steadyStep(ss, r, frames[i%len(frames)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if n := ss.aReports.Load() - reportsBefore; n != 0 {
		t.Fatalf("measurement window produced %d reports; the zero-alloc claim needs a report-free stretch", n)
	}
}

// BenchmarkFleetSteadyState measures one frame through the full session
// hot path (read + decode + enqueue + batched feed of 1024 samples).
func BenchmarkFleetSteadyState(b *testing.B) {
	ss, clean := detachedSession(b)
	const chunk = 1024
	frames := make([][]byte, 0, len(clean)/chunk)
	for i := 0; i+chunk <= len(clean); i += chunk {
		var buf bytes.Buffer
		if err := writeFrame(&buf, FrameSamples, EncodeSamples(clean[i:i+chunk])); err != nil {
			b.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
	}
	r := bytes.NewReader(nil)
	for i := 0; i < 500; i++ {
		if err := steadyStep(ss, r, frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := steadyStep(ss, r, frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
}
