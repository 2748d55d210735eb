package fleet

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"eddie/internal/core"
	"eddie/internal/dsp"
	"eddie/internal/inject"
	"eddie/internal/metrics"
	"eddie/internal/pipeline"
	"eddie/internal/pipeline/pipetest"
	"eddie/internal/stream"
)

// fleetSignal returns the shared trained fixture plus one detrended,
// injection-contaminated capture (collected once per process).
var (
	sigOnce    sync.Once
	sigSamples []float64
	sigErr     error
)

func fleetSignal(t *testing.T) (*pipetest.F, []float64) {
	t.Helper()
	f := pipetest.Fixture(t)
	sigOnce.Do(func() {
		inj := &inject.InLoop{
			Header: f.Machine.Nests[0].Header, Instrs: 8, MemOps: 4,
			Contamination: 0.5, Seed: 3,
		}
		run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, 800, inj)
		if err != nil {
			sigErr = err
			return
		}
		sigSamples = dsp.Detrend(run.Signal)
	})
	if sigErr != nil {
		t.Fatal(sigErr)
	}
	return f, sigSamples
}

// serverConfig is the default test server configuration for a fixture.
func serverConfig(f *pipetest.F) Config {
	return Config{
		Models: StaticModels{"bitcount": f.Model},
		Stream: stream.Config{
			STFT:    f.Config.STFT,
			Peaks:   f.Config.Peaks,
			Monitor: core.DefaultMonitorConfig(),
		},
	}
}

// startServer runs a fleet server on a loopback listener and tears it
// down with the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return s, ln.Addr().String()
}

// feedDirect runs the same samples through a direct stream.Detector with
// the fleet session's effective configuration, returning the reports.
func feedDirect(t *testing.T, f *pipetest.F, samples []float64) (*stream.Detector, []core.Report) {
	t.Helper()
	cfg := stream.Config{
		STFT:              f.Config.STFT,
		Peaks:             f.Config.Peaks,
		Monitor:           core.DefaultMonitorConfig(),
		DisableDCBlock:    true,
		MaxHistoryWindows: 4096, // the fleet server default
	}
	det, err := stream.NewDetector(f.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reports []core.Report
	for i := 0; i < len(samples); {
		n := 251 + i%509
		if i+n > len(samples) {
			n = len(samples) - i
		}
		reports = append(reports, det.Feed(samples[i:i+n])...)
		i += n
	}
	return det, reports
}

// TestFleetDifferentialVsDirect streams a capture through the fleet
// server over real TCP and asserts the reports coming back over the wire
// are bit-identical to a direct stream.Detector fed the same samples:
// same report count, same window indices, same float64 timestamps (JSON
// round-trips float64 exactly, so == is the right comparison). The
// differential runs at several shard counts: batching and scheduling
// must never change a verdict.
func TestFleetDifferentialVsDirect(t *testing.T) {
	f, sig := fleetSignal(t)
	det, directReports := feedDirect(t, f, sig)

	type variant struct {
		name   string
		shards int
	}
	variants := []variant{{"shards=1", 1}, {"shards=4", 4}}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		variants = append(variants, variant{fmt.Sprintf("shards=gomaxprocs-%d", n), n})
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := serverConfig(f)
			cfg.Shards = v.shards
			testFleetDifferential(t, f, sig, cfg, det, directReports)
		})
	}
}

func testFleetDifferential(t *testing.T, f *pipetest.F, sig []float64, cfg Config, det *stream.Detector, directReports []core.Report) {
	s, addr := startServer(t, cfg)

	// Generous I/O timeout: a differential run pushes hundreds of frames
	// through a single shard turnstile, and CI machines stall.
	c, err := DialConfig(addr, Hello{Device: "dev-diff", Workload: "bitcount", DisableDCBlock: true},
		ClientConfig{DialTimeout: 30 * time.Second, IOTimeout: 120 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	w := c.Welcome()
	if w.WindowSize != f.Config.STFT.WindowSize || w.HopSize != f.Config.STFT.HopSize {
		t.Fatalf("welcome window/hop %d/%d, want %d/%d",
			w.WindowSize, w.HopSize, f.Config.STFT.WindowSize, f.Config.STFT.HopSize)
	}
	if w.Regions != len(f.Model.Regions) {
		t.Fatalf("welcome regions %d, want %d", w.Regions, len(f.Model.Regions))
	}

	for i := 0; i < len(sig); {
		n := 251 + i%509 // awkward chunk sizes, same as the stream differential test
		if i+n > len(sig) {
			n = len(sig) - i
		}
		if err := c.Send(sig[i : i+n]); err != nil {
			t.Fatal(err)
		}
		i += n
	}
	sum, reports, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}

	if sum.Samples != int64(len(sig)) {
		t.Fatalf("summary samples %d, want %d", sum.Samples, len(sig))
	}
	if sum.Windows != det.Windows() {
		t.Fatalf("summary windows %d, direct %d", sum.Windows, det.Windows())
	}
	if sum.Sanitized != 0 {
		t.Fatalf("summary sanitized %d on a clean capture", sum.Sanitized)
	}
	if len(reports) != len(directReports) {
		t.Fatalf("fleet reports %d, direct %d", len(reports), len(directReports))
	}
	if len(reports) == 0 {
		t.Fatal("contaminated capture produced no reports; differential is vacuous")
	}
	if sum.Reports != len(reports) {
		t.Fatalf("summary reports %d, streamed %d", sum.Reports, len(reports))
	}
	for i := range reports {
		got, want := reports[i], directReports[i]
		if got.Window != want.Window || got.TimeSec != want.TimeSec || got.Region != int(want.Region) {
			t.Fatalf("report %d: fleet %+v, direct %+v", i, got, want)
		}
		if got.Device != "dev-diff" {
			t.Fatalf("report %d: device %q", i, got.Device)
		}
	}

	if n := s.Registry().Counter("fleet_reports").Value(); n != int64(len(reports)) {
		t.Fatalf("fleet_reports counter %d, want %d", n, len(reports))
	}
}

// TestFleetRejectsBadHello drives the handshake's failure paths.
func TestFleetRejectsBadHello(t *testing.T) {
	f, _ := fleetSignal(t)
	_, addr := startServer(t, serverConfig(f))

	for _, tc := range []struct {
		name string
		h    Hello
		want string
	}{
		{"bad device", Hello{Device: "../evil", Workload: "bitcount"}, "invalid device name"},
		{"empty device", Hello{Device: "", Workload: "bitcount"}, "invalid device name"},
		{"bad workload", Hello{Device: "dev", Workload: "no/such"}, "invalid workload name"},
		{"unknown workload", Hello{Device: "dev", Workload: "nosuch"}, "no model"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Dial(addr, tc.h)
			if err == nil {
				t.Fatal("hello accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want substring %q", err, tc.want)
			}
		})
	}

	t.Run("wrong first frame", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := writeFrame(conn, FrameBye, nil); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		typ, payload, err := readFrame(conn, DefaultMaxFrameBytes)
		if err != nil {
			t.Fatal(err)
		}
		if typ != FrameError || !strings.Contains(string(payload), "expected hello") {
			t.Fatalf("got frame 0x%02x %q", typ, payload)
		}
	})
}

// TestFleetCapacityRefusal fills the session bound and checks the next
// connection is refused with an error frame, then admitted again once a
// slot frees up.
func TestFleetCapacityRefusal(t *testing.T) {
	f, _ := fleetSignal(t)
	cfg := serverConfig(f)
	cfg.MaxSessions = 1
	s, addr := startServer(t, cfg)

	c1, err := Dial(addr, Hello{Device: "dev-1", Workload: "bitcount"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Dial(addr, Hello{Device: "dev-2", Workload: "bitcount"})
	if err == nil || !strings.Contains(err.Error(), "at capacity") {
		t.Fatalf("second dial: %v, want at-capacity refusal", err)
	}
	if n := s.Registry().Counter("fleet_conns_refused").Value(); n == 0 {
		t.Fatal("fleet_conns_refused not incremented")
	}

	c1.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c2, err := Dial(addr, Hello{Device: "dev-2", Workload: "bitcount"})
		if err == nil {
			c2.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after close: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetIdleTimeout checks a silent session is torn down with an
// error frame after the idle deadline.
func TestFleetIdleTimeout(t *testing.T) {
	f, _ := fleetSignal(t)
	cfg := serverConfig(f)
	cfg.IdleTimeout = 200 * time.Millisecond
	_, addr := startServer(t, cfg)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, FrameHello, mustJSON(Hello{Device: "dev-idle", Workload: "bitcount"})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, _, err := readFrame(conn, DefaultMaxFrameBytes)
	if err != nil || typ != FrameWelcome {
		t.Fatalf("welcome: frame 0x%02x, err %v", typ, err)
	}
	// Send nothing: the idle deadline must fire and answer with an error.
	typ, payload, err := readFrame(conn, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatalf("awaiting idle teardown: %v", err)
	}
	if typ != FrameError || !strings.Contains(string(payload), "idle") {
		t.Fatalf("got frame 0x%02x %q, want idle error", typ, payload)
	}
}

// TestBackpressureStalls drives the bounded session inbox directly: an
// enqueue over the pending cap must block (and count a stall) until the
// processor side drains, and must wake up when it does. The test stands
// in for the shard processor, so the session is pre-marked queued and
// drained with the same inbox operations processTurn uses.
func TestBackpressureStalls(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := &Server{cfg: Config{Models: StaticModels{}, MaxPendingSamples: 16}.withDefaults()}
	srv.reg = reg
	srv.cBackpress = reg.Counter("fleet_backpressure_stalls")
	ss := newSession(srv, 1, nil)
	ss.queued = true // the test plays the shard's role

	if !ss.enqueue(make([]float64, 512)) {
		t.Fatal("first enqueue refused")
	}
	done := make(chan bool, 1)
	go func() { done <- ss.enqueue(make([]float64, 512)) }()
	select {
	case <-done:
		t.Fatal("enqueue over the pending cap did not stall")
	case <-time.After(100 * time.Millisecond):
	}
	if n := srv.cBackpress.Value(); n != 1 {
		t.Fatalf("stall counter %d, want 1", n)
	}

	// Drain the inbox the way a processor turn does.
	ss.mu.Lock()
	batch := ss.inbox.drainTo(nil)
	ss.pending = 0
	ss.cond.Broadcast()
	ss.mu.Unlock()
	if len(batch) != 1 || len(batch[0]) != 512 {
		t.Fatalf("drained %d chunks, want the one 512-sample chunk", len(batch))
	}
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("stalled enqueue returned false after drain")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled enqueue never woke up")
	}
	// A stall is counted once per blocked enqueue, not once per wakeup.
	if n := srv.cBackpress.Value(); n != 1 {
		t.Fatalf("stall counter %d after wakeup, want 1", n)
	}
}

// TestFleetBackpressureEndToEnd runs a session with a tiny pending cap
// over real TCP and checks nothing is lost or reordered under stalls.
func TestFleetBackpressureEndToEnd(t *testing.T) {
	f, sig := fleetSignal(t)
	cfg := serverConfig(f)
	cfg.MaxPendingSamples = 64 // far below the per-send chunk size
	_, addr := startServer(t, cfg)

	c, err := DialConfig(addr, Hello{Device: "dev-bp", Workload: "bitcount", DisableDCBlock: true},
		ClientConfig{DialTimeout: 30 * time.Second, IOTimeout: 120 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := len(sig)
	if n > 100_000 {
		n = 100_000
	}
	for i := 0; i < n; i += 512 {
		end := i + 512
		if end > n {
			end = n
		}
		if err := c.Send(sig[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	sum, _, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Samples != int64(n) {
		t.Fatalf("summary samples %d, want %d", sum.Samples, n)
	}
	det, _ := feedDirect(t, f, sig[:n])
	if sum.Windows != det.Windows() {
		t.Fatalf("summary windows %d, direct %d", sum.Windows, det.Windows())
	}
}

// TestFleetStressConcurrentSessions runs well over 8 concurrent device
// sessions against one server (several sharing a device name, so the
// shared per-device counters are exercised) while another goroutine
// hammers the listing and scrape endpoints. Run under -race this is the
// fleet's concurrency proof.
func TestFleetStressConcurrentSessions(t *testing.T) {
	f, sig := fleetSignal(t)
	cfg := serverConfig(f)
	cfg.MaxSessions = 16 // the default can resolve to 8 on small machines
	s, addr := startServer(t, cfg)

	n := len(sig)
	if testing.Short() && n > 120_000 {
		n = 120_000
	}
	part := sig[:n]
	det, directReports := feedDirect(t, f, part)

	const sessions = 10
	const devices = 5 // 2 sessions per device name → shared counters
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dev := fmt.Sprintf("dev-%d", i%devices)
			c, err := DialConfig(addr, Hello{Device: dev, Workload: "bitcount", DisableDCBlock: true},
				ClientConfig{DialTimeout: 30 * time.Second, IOTimeout: 120 * time.Second})
			if err != nil {
				errs <- fmt.Errorf("session %d: dial: %w", i, err)
				return
			}
			defer c.Close()
			for off := 0; off < len(part); {
				k := 1024 + (i*131+off)%2048
				if off+k > len(part) {
					k = len(part) - off
				}
				if err := c.Send(part[off : off+k]); err != nil {
					errs <- fmt.Errorf("session %d: send: %w", i, err)
					return
				}
				off += k
			}
			sum, reports, err := c.Finish()
			if err != nil {
				errs <- fmt.Errorf("session %d: finish: %w", i, err)
				return
			}
			if sum.Samples != int64(len(part)) {
				errs <- fmt.Errorf("session %d: samples %d, want %d", i, sum.Samples, len(part))
				return
			}
			if sum.Windows != det.Windows() {
				errs <- fmt.Errorf("session %d: windows %d, want %d", i, sum.Windows, det.Windows())
				return
			}
			if len(reports) != len(directReports) {
				errs <- fmt.Errorf("session %d: reports %d, want %d", i, len(reports), len(directReports))
				return
			}
			errs <- nil
		}(i)
	}

	// Concurrent observers: session listings and Prometheus scrapes must
	// be safe while sessions stream.
	stop := make(chan struct{})
	var obsWG sync.WaitGroup
	obsWG.Add(1)
	go func() {
		defer obsWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Sessions()
			s.FleetSessionsPage(0, DefaultSessionPageLimit)
			s.Registry().WritePrometheus(io.Discard, "eddie")
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	close(stop)
	obsWG.Wait()
	for i := 0; i < sessions; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	reg := s.Registry()
	if got := reg.Counter("fleet_sessions_opened").Value(); got != sessions {
		t.Errorf("fleet_sessions_opened %d, want %d", got, sessions)
	}
	perDevice := int64(sessions / devices * len(part))
	for d := 0; d < devices; d++ {
		name := fmt.Sprintf("fleet_device_samples/dev-%d", d)
		if got := reg.Counter(name).Value(); got != perDevice {
			t.Errorf("%s = %d, want %d", name, got, perDevice)
		}
	}
	if got := reg.Counter("fleet_reports").Value(); got != int64(sessions*len(directReports)) {
		t.Errorf("fleet_reports %d, want %d", got, sessions*len(directReports))
	}
}

// TestFleetSmoke is the end-to-end smoke run behind `make fleet-smoke`:
// several devices stream concurrently, the server is asked to drain
// mid-stream, every in-flight session is told "server draining", and
// shutdown completes gracefully.
func TestFleetSmoke(t *testing.T) {
	f, sig := fleetSignal(t)
	s, err := NewServer(serverConfig(f))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	addr := ln.Addr().String()

	// A raw device mid-stream: it will be told the server is draining.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, FrameHello, mustJSON(Hello{Device: "dev-raw", Workload: "bitcount"})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if typ, _, err := readFrame(conn, DefaultMaxFrameBytes); err != nil || typ != FrameWelcome {
		t.Fatalf("welcome: frame 0x%02x, err %v", typ, err)
	}
	chunk := sig
	if len(chunk) > 8192 {
		chunk = chunk[:8192]
	}
	if err := writeFrame(conn, FrameSamples, EncodeSamples(chunk)); err != nil {
		t.Fatal(err)
	}

	// A well-behaved device that completes before the drain.
	c, err := Dial(addr, Hello{Device: "dev-clean", Workload: "bitcount"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(chunk); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// The raw device must have been answered with a draining error after
	// its queued samples were processed.
	sawError := false
	for {
		typ, payload, err := readFrame(conn, DefaultMaxFrameBytes)
		if err != nil {
			break
		}
		if typ == FrameError {
			sawError = true
			if !strings.Contains(string(payload), "draining") {
				t.Fatalf("drain error %q", payload)
			}
			break
		}
		// Reports for the queued samples may precede the error frame.
		if typ != FrameReport {
			t.Fatalf("unexpected frame 0x%02x during drain", typ)
		}
	}
	if !sawError {
		t.Fatal("drained session never received the draining error frame")
	}

	// After shutdown the listing shows no active sessions and further
	// dials fail (listener closed or refused while draining).
	for _, info := range s.Sessions() {
		if info.Active {
			t.Fatalf("session %d still active after shutdown", info.Session)
		}
	}
	if _, err := Dial(addr, Hello{Device: "dev-late", Workload: "bitcount"}); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}

	if got := s.Registry().Counter("fleet_sessions_opened").Value(); got != 2 {
		t.Errorf("fleet_sessions_opened %d, want 2", got)
	}
	if got := s.Registry().Counter("fleet_sessions_closed").Value(); got != 2 {
		t.Errorf("fleet_sessions_closed %d, want 2", got)
	}
}

// TestDirModels exercises the directory-backed model source: name
// validation before any filesystem access, error paths not cached, and
// model sharing once loaded.
func TestDirModels(t *testing.T) {
	f, _ := fleetSignal(t)
	dir := t.TempDir()
	d := NewDirModels(dir)

	if _, err := d.Load("../escape"); err == nil || !strings.Contains(err.Error(), "invalid workload") {
		t.Fatalf("path traversal: %v", err)
	}
	if _, err := d.Load("nosuchworkload"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	// Known workload, no file yet: must fail, and the failure must not be
	// cached (installing the model later works without a restart).
	if _, err := d.Load("bitcount"); err == nil {
		t.Fatal("missing model file accepted")
	}
	if err := f.Model.SaveFile(filepath.Join(dir, "bitcount.json")); err != nil {
		t.Fatal(err)
	}
	m1, err := d.Load("bitcount")
	if err != nil {
		t.Fatalf("load after install: %v", err)
	}
	m2, err := d.Load("bitcount")
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("cached load returned a different model instance")
	}
	// Forget forces a re-read.
	d.Forget("bitcount")
	if err := os.Remove(filepath.Join(dir, "bitcount.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load("bitcount"); err == nil {
		t.Fatal("load succeeded after Forget with the file gone")
	}
}
