package coord

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"eddie/internal/core"
	"eddie/internal/dsp"
	"eddie/internal/fleet"
	"eddie/internal/inject"
	"eddie/internal/obs"
	"eddie/internal/pipeline"
	"eddie/internal/pipeline/pipetest"
	"eddie/internal/stream"
)

// coordSignal returns the shared trained fixture plus one detrended,
// injection-contaminated capture (collected once per process).
var (
	sigOnce    sync.Once
	sigSamples []float64
	sigErr     error
)

func coordSignal(t *testing.T) (*pipetest.F, []float64) {
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

// backendConfig is the default test backend configuration for a
// fixture.
func backendConfig(f *pipetest.F) fleet.Config {
	return fleet.Config{
		Models: fleet.StaticModels{"bitcount": f.Model},
		Stream: stream.Config{
			STFT:    f.Config.STFT,
			Peaks:   f.Config.Peaks,
			Monitor: core.DefaultMonitorConfig(),
		},
	}
}

// startBackend runs a fleet backend on a loopback listener. It is NOT
// registered for cleanup teardown — failover tests kill backends
// mid-test — so callers own the Close (calling it twice is fine).
func startBackend(t *testing.T, cfg fleet.Config) (*fleet.Server, string) {
	t.Helper()
	s, err := fleet.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

// startCoord runs a coordinator over the given backends and waits for
// the first probe round.
func startCoord(t *testing.T, cfg Config) (*Coordinator, string) {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 50 * time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(ln)
	t.Cleanup(func() { c.Close() })
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c, ln.Addr().String()
}

// streamSession dials addr, streams the capture in frames, and returns
// the summary and reports.
func streamSession(t *testing.T, addr, device string, samples []float64, cfg fleet.ClientConfig) (fleet.Summary, []fleet.Report) {
	t.Helper()
	cl, err := fleet.DialConfig(addr, fleet.Hello{Device: device, Workload: "bitcount"}, cfg)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer cl.Close()
	for i := 0; i < len(samples); {
		n := 251 + i%509
		if i+n > len(samples) {
			n = len(samples) - i
		}
		if err := cl.Send(samples[i : i+n]); err != nil {
			t.Fatalf("send: %v", err)
		}
		i += n
	}
	sum, reports, err := cl.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	return sum, reports
}

// TestCoordDifferentialVsDirect streams the same capture once through
// the coordinator (hello → redirect → backend) and once straight at the
// backend with an old-protocol client, and asserts the two sessions'
// reports and summaries are bit-identical: the redirect hop must change
// routing only, never detection.
func TestCoordDifferentialVsDirect(t *testing.T) {
	f, samples := coordSignal(t)
	_, backendAddr := startBackend(t, backendConfig(f))
	_, coordAddr := startCoord(t, Config{Backends: []string{backendAddr}})

	sumVia, repVia := streamSession(t, coordAddr, "dev-via-coord", samples, fleet.ClientConfig{})
	sumDir, repDir := streamSession(t, backendAddr, "dev-direct", samples,
		fleet.ClientConfig{MaxRedirects: -1})

	if len(repVia) == 0 {
		t.Fatal("contaminated capture produced no reports")
	}
	if len(repVia) != len(repDir) {
		t.Fatalf("report counts differ: %d via coordinator, %d direct", len(repVia), len(repDir))
	}
	for i := range repVia {
		v, d := repVia[i], repDir[i]
		if v.Window != d.Window || v.TimeSec != d.TimeSec || v.Region != d.Region {
			t.Fatalf("report %d differs: via=%+v direct=%+v", i, v, d)
		}
	}
	if sumVia.Samples != sumDir.Samples || sumVia.Windows != sumDir.Windows ||
		sumVia.Reports != sumDir.Reports || sumVia.Sanitized != sumDir.Sanitized {
		t.Fatalf("summaries differ: via=%+v direct=%+v", sumVia, sumDir)
	}
}

// TestCoordFailover kills a backend mid-stream and checks the full
// re-homing story: the coordinator drains the dead backend from the
// ring and journals a rehome event, a re-dialing client lands on the
// survivor, and every alarm fired before the kill is recoverable from
// the dead backend's journal — zero alarms lost to the failover.
func TestCoordFailover(t *testing.T) {
	f, samples := coordSignal(t)

	dirA := t.TempDir()
	journalA, err := obs.OpenJournal(obs.JournalConfig{Dir: dirA, Fsync: obs.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer journalA.Close()
	cfgA := backendConfig(f)
	cfgA.Journal = journalA
	backendA, addrA := startBackend(t, cfgA)
	_, addrB := startBackend(t, backendConfig(f))

	dirC := t.TempDir()
	journalC, err := obs.OpenJournal(obs.JournalConfig{Dir: dirC, Fsync: obs.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer journalC.Close()
	coord, coordAddr := startCoord(t, Config{
		Backends:      []string{addrA, addrB},
		ProbeInterval: 25 * time.Millisecond,
		Journal:       journalC,
	})

	// Pick a device the ring assigns to backend A, so the kill hits the
	// session's owner.
	ring := NewRing(0)
	ring.Add(addrA)
	ring.Add(addrB)
	device := ""
	for i := 0; i < 1000; i++ {
		d := fmt.Sprintf("victim-%03d", i)
		if owner, _ := ring.Owner(d, nil); owner == addrA {
			device = d
			break
		}
	}
	if device == "" {
		t.Fatal("no device hashed onto backend A")
	}

	// First half of the capture through the coordinator onto backend A.
	cl, err := fleet.Dial(coordAddr, fleet.Hello{Device: device, Workload: "bitcount"})
	if err != nil {
		t.Fatal(err)
	}
	half := len(samples) / 2
	for i := 0; i < half; {
		n := 500
		if i+n > half {
			n = half - i
		}
		if err := cl.Send(samples[i : i+n]); err != nil {
			t.Fatalf("pre-kill send: %v", err)
		}
		i += n
	}
	// Drain cleanly so backend A journals its alarms before dying; a
	// torn session would lose in-flight detector state by design (the
	// re-homed session restarts fresh), but alarms already fired must
	// be durable.
	_, preReports, err := cl.Finish()
	if err != nil {
		t.Fatalf("pre-kill finish: %v", err)
	}
	cl.Close()
	if len(preReports) == 0 {
		t.Fatal("first half of the capture produced no alarms")
	}

	// Kill backend A and wait for the coordinator to notice.
	backendA.Close()
	deadline := time.Now().Add(5 * time.Second)
	for coord.ring.Len() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never drained the dead backend")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := coord.cRehomes.Value(); got != 1 {
		t.Fatalf("coord_rehomes = %d, want 1", got)
	}

	// The device re-dials the coordinator (as a real device's backoff
	// loop would) and must land on the survivor with fresh state.
	sum, _ := streamSession(t, coordAddr, device, samples, fleet.ClientConfig{
		Retries: 4, RetryBackoff: 25 * time.Millisecond,
	})
	if sum.Samples != int64(len(samples)) {
		t.Fatalf("re-homed session processed %d samples, want %d", sum.Samples, len(samples))
	}

	// The rehome event is journaled durably at the coordinator.
	journalC.Sync()
	recC, err := obs.RecoverJournal(dirC)
	if err != nil {
		t.Fatal(err)
	}
	rehomes := 0
	for _, ev := range recC.Events {
		if ev.Type == "rehome" && strings.Contains(ev.Detail, addrA) {
			rehomes++
		}
	}
	if rehomes != 1 {
		t.Fatalf("coordinator journal has %d rehome events for %s, want 1", rehomes, addrA)
	}

	// Zero lost alarms: every report the device saw before the kill is
	// in backend A's journal.
	recA, err := obs.RecoverJournal(dirA)
	if err != nil {
		t.Fatal(err)
	}
	if len(recA.Alarms) < len(preReports) {
		t.Fatalf("backend A journal recovered %d alarms, device saw %d pre-kill reports",
			len(recA.Alarms), len(preReports))
	}
	journaled := map[int]bool{}
	for _, a := range recA.Alarms {
		journaled[a.Window] = true
	}
	for _, r := range preReports {
		if !journaled[r.Window] {
			t.Errorf("pre-kill alarm at window %d missing from the journal", r.Window)
		}
	}
}

// TestCoordAggregatedListing spreads sessions across two backends and
// checks the coordinator's cross-backend paged listing: config-order
// concatenation, correct totals, and working offsets.
func TestCoordAggregatedListing(t *testing.T) {
	f, _ := coordSignal(t)
	_, addrA := startBackend(t, backendConfig(f))
	_, addrB := startBackend(t, backendConfig(f))
	coord, _ := startCoord(t, Config{Backends: []string{addrA, addrB}})

	// Old-protocol clients dialed straight at the backends place the
	// sessions deterministically: two on A, one on B.
	direct := fleet.ClientConfig{MaxRedirects: -1}
	var clients []*fleet.Client
	for _, s := range []struct{ addr, device string }{
		{addrA, "lst-a1"}, {addrA, "lst-a2"}, {addrB, "lst-b1"},
	} {
		cl, err := fleet.DialConfig(s.addr, fleet.Hello{Device: s.device, Workload: "bitcount"}, direct)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
		defer cl.Close()
	}

	page, total, active := coord.FleetSessionsPage(0, 10)
	sessions := page.([]fleet.SessionInfo)
	if total != 3 || active != 3 || len(sessions) != 3 {
		t.Fatalf("full page: %d sessions, total %d, active %d; want 3/3/3", len(sessions), total, active)
	}
	order := []string{sessions[0].Device, sessions[1].Device, sessions[2].Device}
	if order[0] != "lst-a1" || order[1] != "lst-a2" || order[2] != "lst-b1" {
		t.Fatalf("listing order %v, want backend-A sessions first", order)
	}

	page, total, _ = coord.FleetSessionsPage(0, 2)
	if got := len(page.([]fleet.SessionInfo)); got != 2 || total != 3 {
		t.Fatalf("limit 2: %d sessions, total %d; want 2 and 3", got, total)
	}
	page, total, _ = coord.FleetSessionsPage(2, 10)
	tail := page.([]fleet.SessionInfo)
	if len(tail) != 1 || tail[0].Device != "lst-b1" || total != 3 {
		t.Fatalf("offset 2: got %+v total %d, want just lst-b1 of 3", tail, total)
	}

	// ActiveSessions reads the probe-reconciled estimate, which lags a
	// direct dial by one probe round.
	deadline := time.Now().Add(5 * time.Second)
	for {
		a, max := coord.ActiveSessions()
		if a == 3 && max > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ActiveSessions = (%d, %d), want 3 active under a positive cap", a, max)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCoordOldClientRefused checks version negotiation at the
// coordinator: a client that never announced ProtoRedirect gets a
// self-describing error, not a redirect frame it would misparse.
func TestCoordOldClientRefused(t *testing.T) {
	f, _ := coordSignal(t)
	_, addrA := startBackend(t, backendConfig(f))
	_, coordAddr := startCoord(t, Config{Backends: []string{addrA}})

	_, err := fleet.DialConfig(coordAddr,
		fleet.Hello{Device: "old-dev", Workload: "bitcount"},
		fleet.ClientConfig{MaxRedirects: -1, Retries: -1})
	if err == nil {
		t.Fatal("old-protocol client succeeded against the coordinator")
	}
	if !strings.Contains(err.Error(), "proto") {
		t.Fatalf("refusal %q does not explain the protocol requirement", err)
	}
}

// TestCoordRefusesInvalidNames checks that the coordinator judges a
// hello's names by the backends' own rule: a hello a backend would
// refuse is refused at the coordinator, before it is hashed, redirected
// and counted toward its owner's load estimate. Backend A has room for
// two sessions, so two such hellos counted as redirects would mark it
// full and divert the next valid device off A's ring span.
func TestCoordRefusesInvalidNames(t *testing.T) {
	f, _ := coordSignal(t)
	cfgA := backendConfig(f)
	cfgA.MaxSessions = 2
	srvA, addrA := startBackend(t, cfgA)
	_, addrB := startBackend(t, backendConfig(f))
	// An hour-long probe period: no probe reconciles A's load estimate
	// while the test runs.
	coord, coordAddr := startCoord(t, Config{
		Backends:      []string{addrA, addrB},
		ProbeInterval: time.Hour,
	})

	ring := NewRing(0)
	ring.Add(addrA)
	ring.Add(addrB)
	ownedByA := func(format string) string {
		t.Helper()
		for i := 0; i < 1000; i++ {
			d := fmt.Sprintf(format, i)
			if owner, _ := ring.Owner(d, nil); owner == addrA {
				return d
			}
		}
		t.Fatalf("no %q name lands on backend A", format)
		return ""
	}

	before := coord.byAddr[addrA].load()
	for _, h := range []fleet.Hello{
		{Device: ownedByA("bad name %d!"), Workload: "bitcount"},
		{Device: ownedByA("dev-%d"), Workload: "../x"},
	} {
		_, err := fleet.DialConfig(coordAddr, h, fleet.ClientConfig{Retries: -1})
		if err == nil || !strings.HasPrefix(err.Error(), "coord: invalid") {
			t.Errorf("hello %+v: %v, want the coordinator's own refusal", h, err)
		}
	}
	if n := coord.Registry().Counter("coord_redirects").Value(); n != 0 {
		t.Errorf("coord_redirects = %d after refused hellos, want 0", n)
	}
	if n := coord.Registry().Counter("coord_backend_redirects/" + addrA).Value(); n != 0 {
		t.Errorf("backend A redirect counter = %d after refused hellos, want 0", n)
	}
	if got := coord.byAddr[addrA].load(); got != before {
		t.Errorf("backend A load estimate %d after refused hellos, want %d", got, before)
	}

	cl, err := fleet.Dial(coordAddr, fleet.Hello{Device: ownedByA("valid-%d"), Workload: "bitcount"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if active, _ := srvA.ActiveSessions(); active != 1 {
		t.Fatalf("backend A holds %d sessions, want the valid device on its ring owner", active)
	}
}

// TestCoordNoBackends checks that a coordinator with every backend down
// refuses hellos instead of hanging, and reports itself overloaded.
func TestCoordNoBackends(t *testing.T) {
	// A dead address: listen, then close, so nothing answers probes.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	coord, coordAddr := startCoord(t, Config{
		Backends:      []string{dead},
		ProbeInterval: 20 * time.Millisecond,
	})
	if st := coord.HealthStatus(); st != obs.HealthOverloaded {
		t.Fatalf("health %q with no live backends, want %q", st, obs.HealthOverloaded)
	}
	_, err = fleet.DialConfig(coordAddr,
		fleet.Hello{Device: "d", Workload: "bitcount"},
		fleet.ClientConfig{Retries: -1})
	if err == nil || !strings.Contains(err.Error(), "no backend") {
		t.Fatalf("dial with no backends: %v, want a no-backend refusal", err)
	}
}

// TestCoordProbeAtFullBackend checks the headroom story end to end: a
// backend at its device cap still answers load probes, so the
// coordinator keeps it in the ring (marked full) instead of re-homing
// its span.
func TestCoordProbeAtFullBackend(t *testing.T) {
	f, _ := coordSignal(t)
	cfg := backendConfig(f)
	cfg.MaxSessions = 1
	_, addrA := startBackend(t, cfg)
	_, addrB := startBackend(t, backendConfig(f))
	coord, coordAddr := startCoord(t, Config{
		Backends:      []string{addrA, addrB},
		ProbeInterval: 25 * time.Millisecond,
	})

	// Fill backend A's single slot.
	cl, err := fleet.DialConfig(addrA,
		fleet.Hello{Device: "filler", Workload: "bitcount"},
		fleet.ClientConfig{MaxRedirects: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Several probe rounds later A must still be in the ring.
	time.Sleep(200 * time.Millisecond)
	if n := coord.ring.Len(); n != 2 {
		t.Fatalf("ring has %d members after probing a full backend, want 2", n)
	}

	// And a device whose span lands on A is diverted to B by bounded
	// load rather than refused.
	ring := NewRing(0)
	ring.Add(addrA)
	ring.Add(addrB)
	device := ""
	for i := 0; i < 1000; i++ {
		d := fmt.Sprintf("spill-%03d", i)
		if owner, _ := ring.Owner(d, nil); owner == addrA {
			device = d
			break
		}
	}
	cl2, err := fleet.Dial(coordAddr, fleet.Hello{Device: device, Workload: "bitcount"})
	if err != nil {
		t.Fatalf("bounded-load spill dial failed: %v", err)
	}
	cl2.Close()
}

// TestCoordLoadQueryAggregates checks that probing the coordinator
// itself with a load query returns the fleet-wide aggregate, so
// coordinators compose with external health checkers.
func TestCoordLoadQueryAggregates(t *testing.T) {
	f, _ := coordSignal(t)
	_, addrA := startBackend(t, backendConfig(f))
	_, addrB := startBackend(t, backendConfig(f))
	_, coordAddr := startCoord(t, Config{Backends: []string{addrA, addrB}})

	conn, err := net.DialTimeout("tcp", coordAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rep, err := roundTrip[fleet.LoadReport](conn, bufio.NewReader(conn), time.Now().Add(2*time.Second),
		fleet.FrameLoadQuery, nil, fleet.FrameLoadReport)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max <= 0 || rep.Draining || rep.Status != obs.HealthReady {
		t.Fatalf("aggregate load report %+v, want ready with a positive cap", rep)
	}
}

// TestCoordValidation covers constructor misuse.
func TestCoordValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no backends succeeded")
	}
	if _, err := New(Config{Backends: []string{"a:1", "a:1"}}); err == nil {
		t.Error("New with duplicate backends succeeded")
	}
	if _, err := New(Config{Backends: []string{""}}); err == nil {
		t.Error("New with an empty backend address succeeded")
	}
	c, err := New(Config{Backends: []string{"127.0.0.1:1"}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}
