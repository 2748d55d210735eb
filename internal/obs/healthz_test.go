package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

// fakeFleetHealth implements FleetHealth for handler tests.
type fakeFleetHealth struct {
	draining    bool
	active, max int
}

func (f *fakeFleetHealth) Draining() bool             { return f.draining }
func (f *fakeFleetHealth) ActiveSessions() (int, int) { return f.active, f.max }
func (f *fakeFleetHealth) FleetSessionsPage(int, int) (any, int, int) {
	return []any{}, 0, 0
}

func getHealthz(t *testing.T, s ServeState) (int, map[string]any) {
	t.Helper()
	srv := httptest.NewServer(NewMux(s))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/eddie/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestHealthzReady(t *testing.T) {
	slo := NewSLOTracker(SLOConfig{})
	for i := 0; i < 100; i++ {
		slo.Record(time.Millisecond)
	}
	code, body := getHealthz(t, ServeState{Health: slo})
	if code != 200 || body["status"] != HealthReady {
		t.Fatalf("code %d status %v, want 200 ready", code, body["status"])
	}
	if body["budget_ms"] != 500.0 {
		t.Fatalf("budget_ms %v", body["budget_ms"])
	}
}

func TestHealthzNilTracker(t *testing.T) {
	code, body := getHealthz(t, ServeState{})
	if code != 200 || body["status"] != HealthReady {
		t.Fatalf("nil tracker: code %d status %v", code, body["status"])
	}
}

func TestHealthzOverloaded503(t *testing.T) {
	slo := NewSLOTracker(SLOConfig{})
	for i := 0; i < 100; i++ {
		slo.Record(10 * time.Second)
	}
	code, body := getHealthz(t, ServeState{Health: slo})
	if code != 503 || body["status"] != HealthOverloaded {
		t.Fatalf("code %d status %v, want 503 overloaded", code, body["status"])
	}
}

// fakeStatusFleet adds a self-supplied verdict (HealthStatuser), the
// shape the coordinator exposes from ring membership.
type fakeStatusFleet struct {
	fakeFleetHealth
	status string
}

func (f *fakeStatusFleet) HealthStatus() string { return f.status }

func TestHealthzFleetStatusOverride(t *testing.T) {
	slo := NewSLOTracker(SLOConfig{})
	slo.Record(time.Millisecond) // SLO plane says ready

	fleet := &fakeStatusFleet{status: HealthDegraded}
	code, body := getHealthz(t, ServeState{Health: slo, Fleet: fleet})
	if code != 200 || body["status"] != HealthDegraded {
		t.Fatalf("degraded fleet: code %d status %v, want 200 degraded", code, body["status"])
	}

	fleet.status = HealthOverloaded // no live backend: fail closed
	code, body = getHealthz(t, ServeState{Health: slo, Fleet: fleet})
	if code != 503 || body["status"] != HealthOverloaded {
		t.Fatalf("dead fleet: code %d status %v, want 503 overloaded", code, body["status"])
	}

	// The worse verdict wins in both directions: a ready fleet does not
	// mask an overloaded SLO tracker.
	burned := NewSLOTracker(SLOConfig{})
	for i := 0; i < 100; i++ {
		burned.Record(10 * time.Second)
	}
	fleet.status = HealthReady
	code, body = getHealthz(t, ServeState{Health: burned, Fleet: fleet})
	if code != 503 || body["status"] != HealthOverloaded {
		t.Fatalf("burned SLO: code %d status %v, want 503 overloaded", code, body["status"])
	}
}

func TestHealthzDrainingOverrides(t *testing.T) {
	slo := NewSLOTracker(SLOConfig{})
	slo.Record(time.Millisecond)
	fleet := &fakeFleetHealth{draining: true, active: 3, max: 100}
	code, body := getHealthz(t, ServeState{Health: slo, Fleet: fleet})
	if code != 503 || body["status"] != HealthDraining {
		t.Fatalf("code %d status %v, want 503 draining", code, body["status"])
	}
	if body["sessions_active"] != 3.0 || body["sessions_max"] != 100.0 {
		t.Fatalf("session counts: %v / %v", body["sessions_active"], body["sessions_max"])
	}
}
