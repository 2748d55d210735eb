package fleet

import (
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"eddie/internal/core"
	"eddie/internal/dsp"
	"eddie/internal/obs"
	"eddie/internal/pipeline"
)

// obsConfig wires a full observability plane (journal + alarm stream +
// SLO tracker) into the test server config, returning the journal
// directory for recovery checks.
func obsConfig(t *testing.T, cfg Config) (Config, string, *obs.AlarmStream) {
	t.Helper()
	dir := t.TempDir()
	j, err := obs.OpenJournal(obs.JournalConfig{Dir: dir, Fsync: obs.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	a := obs.NewAlarmStream()
	cfg.Journal, cfg.Alarms, cfg.SLO = j, a, obs.NewSLOTracker(obs.SLOConfig{})
	return cfg, dir, a
}

// drainSSE collects every event a subscriber channel delivers until it
// closes, on a goroutine; read the returned channel for the result.
func drainSSE(ch <-chan []byte) <-chan [][]byte {
	out := make(chan [][]byte, 1)
	go func() {
		var events [][]byte
		for ev := range ch {
			events = append(events, append([]byte(nil), ev...))
		}
		out <- events
	}()
	return out
}

// TestFleetJournalRoundTrip is the durability acceptance check: an
// injected-anomaly fleet run journals every alarm, and recovering the
// journal reproduces the live AlarmDumps bit-identically — the events
// streamed to SSE subscribers at fire time re-marshal byte-for-byte
// from the recovered journal.
func TestFleetJournalRoundTrip(t *testing.T) {
	f, sig := fleetSignal(t)
	cfg, jdir, alarms := obsConfig(t, serverConfig(f))
	_, addr := startServer(t, cfg)

	sub, cancel := alarms.Subscribe()
	live := drainSSE(sub)
	defer cancel()

	c, err := DialConfig(addr, Hello{Device: "dev-journal", Workload: "bitcount", DisableDCBlock: true},
		ClientConfig{DialTimeout: 30 * time.Second, IOTimeout: 120 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < len(sig); i += 1024 {
		end := min(i+1024, len(sig))
		if err := c.Send(sig[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	_, reports, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("contaminated capture produced no reports; round-trip is vacuous")
	}
	alarms.Close()
	liveEvents := <-live

	if err := cfg.Journal.Sync(); err != nil {
		t.Fatal(err)
	}
	rec, err := obs.RecoverJournal(jdir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedTail || rec.CorruptLines != 0 {
		t.Fatalf("clean run recovered dirty: %+v", rec)
	}
	if len(rec.Alarms) != len(reports) {
		t.Fatalf("journal has %d alarms, fleet streamed %d reports", len(rec.Alarms), len(reports))
	}
	if len(liveEvents) != len(reports) {
		t.Fatalf("SSE delivered %d alarm events, want %d", len(liveEvents), len(reports))
	}
	// Bit-identical round trip: the journaled alarm events re-marshal to
	// exactly the bytes published live (JSON float64 round-trips are
	// exact in Go, so equality is the right comparison).
	var alarmEvents []obs.JournalEvent
	for _, ev := range rec.Events {
		if ev.Type == "alarm" {
			alarmEvents = append(alarmEvents, ev)
		}
	}
	for i := range alarmEvents {
		remarshaled, err := json.Marshal(&alarmEvents[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(remarshaled) != string(liveEvents[i]) {
			t.Fatalf("alarm %d not bit-identical:\njournal: %s\nlive:    %s",
				i, remarshaled, liveEvents[i])
		}
	}
	// Each alarm is encoded once: the SSE payload is the journal's own
	// line for it, byte for byte.
	var alarmLines []string
	files, err := filepath.Glob(filepath.Join(jdir, "journal-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
			var ev obs.JournalEvent
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("journal line %q: %v", line, err)
			}
			if ev.Type == "alarm" {
				alarmLines = append(alarmLines, line)
			}
		}
	}
	if len(alarmLines) != len(liveEvents) {
		t.Fatalf("journal has %d alarm lines, SSE delivered %d", len(alarmLines), len(liveEvents))
	}
	for i, line := range alarmLines {
		if line != string(liveEvents[i]) {
			t.Fatalf("alarm %d SSE payload differs from its journal line:\njournal: %s\nlive:    %s",
				i, line, liveEvents[i])
		}
	}
	// The dumps carry real evidence and match the report stream.
	for i, d := range rec.Alarms {
		if d.Window != reports[i].Window || d.TimeSec != reports[i].TimeSec {
			t.Fatalf("alarm %d dump (w%d t%g) mismatches report (w%d t%g)",
				i, d.Window, d.TimeSec, reports[i].Window, reports[i].TimeSec)
		}
		if len(d.Records) == 0 {
			t.Fatalf("alarm %d has no flight records", i)
		}
	}
}

// TestFleetDrainJournalAndSSE covers the graceful-drain interaction:
// Shutdown must flush the journal (no lost lifecycle events or alarms),
// close every SSE subscriber, and leak no goroutines.
func TestFleetDrainJournalAndSSE(t *testing.T) {
	f, sig := fleetSignal(t)
	baseline := runtime.NumGoroutine()
	jdir := t.TempDir()
	j, err := obs.OpenJournal(obs.JournalConfig{Dir: jdir, Fsync: obs.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	alarms := obs.NewAlarmStream()
	cfg := serverConfig(f)
	cfg.Journal, cfg.Alarms = j, alarms
	cfg.SLO = obs.NewSLOTracker(obs.SLOConfig{})

	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()

	sub, cancel := alarms.Subscribe()
	defer cancel()
	live := drainSSE(sub)

	c, err := DialConfig(ln.Addr().String(),
		Hello{Device: "dev-drain", Workload: "bitcount", DisableDCBlock: true},
		ClientConfig{DialTimeout: 30 * time.Second, IOTimeout: 120 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < len(sig); i += 1024 {
		end := min(i+1024, len(sig))
		if err := c.Send(sig[i:end]); err != nil {
			t.Fatal(err)
		}
	}

	// Graceful drain mid-stream (the SIGTERM path in cmd/eddie): queued
	// frames are still processed, then everything shuts down.
	ctx, cancelCtx := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelCtx()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// The drain closed the alarm stream: the subscriber loop ends.
	liveEvents := <-live

	// Journal is flushed and consistent: lifecycle events present and
	// every streamed alarm durable.
	rec, err := obs.RecoverJournal(jdir)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ev := range rec.Events {
		counts[ev.Type]++
	}
	for _, typ := range []string{"server_start", "connect", "drain", "disconnect", "server_stop"} {
		if counts[typ] != 1 {
			t.Errorf("journal has %d %q events, want 1 (all: %v)", counts[typ], typ, counts)
		}
	}
	total := int(s.Registry().Counter("fleet_reports").Value())
	if counts["alarm"] != total {
		t.Errorf("journal has %d alarms, fleet fired %d reports (lost alarms on drain)",
			counts["alarm"], total)
	}
	if len(liveEvents) != total {
		t.Errorf("SSE delivered %d alarms before shutdown, fleet fired %d", len(liveEvents), total)
	}
	if _, _, subs := alarms.Stats(); subs != 0 {
		t.Errorf("%d SSE subscribers still registered after drain", subs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// No goroutine leaks: everything the server started is gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak after drain: %d > baseline %d\n%s",
			n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestFleetHealthzFlipsDegraded is the SLO acceptance check: against a
// tight latency budget an over-budget fleet-load rung flips
// /eddie/healthz from ready to degraded, observable over HTTP.
func TestFleetHealthzFlipsDegraded(t *testing.T) {
	f, sig := fleetSignal(t)
	// A 1 ns budget makes every real verdict over-budget (the
	// "over-budget rung" without needing to overload CI hardware);
	// OverloadBurn is pushed out of reach so the flip lands exactly on
	// degraded.
	slo := obs.NewSLOTracker(obs.SLOConfig{Budget: time.Nanosecond, OverloadBurn: 1e9})
	cfg := serverConfig(f)
	cfg.SLO = slo
	s, addr := startServer(t, cfg)

	mux := obs.NewMux(obs.ServeState{Health: slo, Fleet: s})
	web := httptest.NewServer(mux)
	defer web.Close()
	getStatus := func() (int, string) {
		t.Helper()
		resp, err := web.Client().Get(web.URL + "/eddie/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body.Status
	}

	if code, status := getStatus(); code != 200 || status != obs.HealthReady {
		t.Fatalf("before load: %d %s, want 200 ready", code, status)
	}

	c, err := DialConfig(addr, Hello{Device: "dev-slo", Workload: "bitcount", DisableDCBlock: true},
		ClientConfig{DialTimeout: 30 * time.Second, IOTimeout: 120 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < len(sig); i += 1024 {
		end := min(i+1024, len(sig))
		if err := c.Send(sig[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}

	h := slo.Health()
	if h.Short.Bad == 0 {
		t.Fatal("no over-budget verdicts recorded; flip is vacuous")
	}
	if code, status := getStatus(); code != 200 || status != obs.HealthDegraded {
		t.Fatalf("over-budget load: %d %s, want 200 degraded", code, status)
	}
}

// TestFleetListingActivityAndDepth: the session listing surfaces
// last-activity timestamps, inbox queue depth, and per-shard latency
// summaries.
func TestFleetListingActivityAndDepth(t *testing.T) {
	f, sig := fleetSignal(t)
	cfg, _, _ := obsConfig(t, serverConfig(f))
	s, addr := startServer(t, cfg)

	c, err := DialConfig(addr, Hello{Device: "dev-list", Workload: "bitcount", DisableDCBlock: true},
		ClientConfig{DialTimeout: 30 * time.Second, IOTimeout: 120 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := time.Now().Add(-time.Second)
	for i := 0; i < 16*1024 && i < len(sig); i += 1024 {
		if err := c.Send(sig[i : i+1024]); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the frames have been processed so activity is recorded.
	// A turn counts its samples while feeding and records its verdict
	// latency only after the batch is decided, so wait for both.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if s.Registry().Counter("fleet_device_samples/dev-list").Value() >= 16*1024 && len(s.shardLatency()) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	infos, _, _ := s.SessionsPage(0, DefaultSessionPageLimit)
	if len(infos) == 0 {
		t.Fatal("no sessions listed")
	}
	info := infos[0]
	if info.LastActivity == "" {
		t.Fatal("LastActivity not surfaced")
	}
	ts, err := time.Parse(time.RFC3339Nano, info.LastActivity)
	if err != nil {
		t.Fatalf("LastActivity %q not RFC3339Nano: %v", info.LastActivity, err)
	}
	if ts.Before(before) {
		t.Fatalf("LastActivity %v predates the frames (%v)", ts, before)
	}
	// Sub-second precision must survive the listing: sessions churn far
	// faster than once a second, so whole-second timestamps made distinct
	// sessions look simultaneous. (A true zero-nanosecond instant is a
	// one-in-a-billion event; a regression here is deterministic.)
	if ts.Nanosecond() == 0 {
		t.Fatalf("LastActivity %q truncated to whole seconds", info.LastActivity)
	}
	started, err := time.Parse(time.RFC3339Nano, info.StartedAt)
	if err != nil {
		t.Fatalf("StartedAt %q not RFC3339Nano: %v", info.StartedAt, err)
	}
	if started.Nanosecond() == 0 {
		t.Fatalf("StartedAt %q truncated to whole seconds", info.StartedAt)
	}
	if info.QueueDepth < 0 {
		t.Fatalf("QueueDepth %d", info.QueueDepth)
	}

	page, _, _ := s.FleetSessionsPage(0, 10)
	m := page.(map[string]any)
	lat, ok := m["shard_latency"].(map[string]any)
	if !ok {
		t.Fatalf("no shard_latency in listing: %T", m["shard_latency"])
	}
	if len(lat) == 0 {
		t.Fatal("shard_latency empty after processed turns")
	}
	for label, v := range lat {
		sm := v.(map[string]any)
		if sm["count"].(int64) <= 0 {
			t.Fatalf("shard %s latency count %v", label, sm["count"])
		}
		if sm["p99_ms"].(float64) < 0 {
			t.Fatalf("shard %s p99 %v", label, sm["p99_ms"])
		}
	}
}

// TestFleetAdaptationObservability: a session whose stream template has
// the adaptive reference layer enabled surfaces its activity on every
// observability channel — the adapt_updates counter the session's
// detector advances in the server registry moves, per-region
// region_adapt_drift/R* gauges are registered, and the alarm journal
// carries throttled "adapt" checkpoint events.
func TestFleetAdaptationObservability(t *testing.T) {
	f, _ := fleetSignal(t)
	// A clean capture: adaptation must engage (the contaminated fleet
	// signal would keep resetting the clean streak).
	run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, 801, nil)
	if err != nil {
		t.Fatal(err)
	}
	clean := dsp.Detrend(run.Signal)

	cfg := serverConfig(f)
	cfg.Stream.Monitor.Adapt = core.AdaptConfig{Enabled: true, MinCleanStreak: 4}
	cfg, jdir, _ := obsConfig(t, cfg)
	s, addr := startServer(t, cfg)

	c, err := DialConfig(addr, Hello{Device: "dev-adapt", Workload: "bitcount", DisableDCBlock: true},
		ClientConfig{DialTimeout: 30 * time.Second, IOTimeout: 120 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < len(clean); i += 1024 {
			end := min(i+1024, len(clean))
			if err := c.Send(clean[i:end]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}

	updates := s.Registry().Counter("adapt_updates").Value()
	if updates == 0 {
		t.Fatal("adapt_updates did not advance on a clean adaptive session")
	}
	var gauges int
	for name := range s.Registry().Snapshot() {
		if strings.HasPrefix(name, "region_adapt_drift/R") {
			gauges++
		}
	}
	if gauges == 0 {
		t.Fatal("no region_adapt_drift gauges registered after admitted updates")
	}

	if err := cfg.Journal.Sync(); err != nil {
		t.Fatal(err)
	}
	rec, err := obs.RecoverJournal(jdir)
	if err != nil {
		t.Fatal(err)
	}
	var adaptEvents int
	for _, ev := range rec.Events {
		if ev.Type != "adapt" {
			continue
		}
		adaptEvents++
		if ev.Device != "dev-adapt" || !strings.Contains(ev.Detail, "updates=") {
			t.Fatalf("malformed adapt event: %+v", ev)
		}
	}
	if adaptEvents == 0 {
		t.Fatal("journal has no adapt checkpoint events")
	}
	// The journal trail is throttled, not per-update: one checkpoint at
	// the first admitted update plus one per adaptJournalEvery after.
	if wantMax := 1 + int(updates)/adaptJournalEvery; adaptEvents > wantMax {
		t.Fatalf("journal has %d adapt events for %d updates (throttle broken, want <= %d)",
			adaptEvents, updates, wantMax)
	}
}
