package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

// fakeNode implements FleetNode for handler tests.
type fakeNode struct {
	status      string
	active, max int
}

func (f *fakeNode) HealthStatus() string       { return f.status }
func (f *fakeNode) ActiveSessions() (int, int) { return f.active, f.max }
func (f *fakeNode) FleetSessionsPage(int, int) (any, int, int) {
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

func TestHealthzFleetStatusOverride(t *testing.T) {
	slo := NewSLOTracker(SLOConfig{})
	slo.Record(time.Millisecond) // SLO plane says ready

	// The attached node's verdict is the status (the coordinator
	// derives one from ring membership).
	fleet := &fakeNode{status: HealthDegraded}
	code, body := getHealthz(t, ServeState{Health: slo, Fleet: fleet})
	if code != 200 || body["status"] != HealthDegraded {
		t.Fatalf("degraded fleet: code %d status %v, want 200 degraded", code, body["status"])
	}

	fleet.status = HealthOverloaded // no live backend: fail closed
	code, body = getHealthz(t, ServeState{Health: slo, Fleet: fleet})
	if code != 503 || body["status"] != HealthOverloaded {
		t.Fatalf("dead fleet: code %d status %v, want 503 overloaded", code, body["status"])
	}

	// With a node attached the tracker only fills the burn-rate
	// windows: the node's verdict is the status even against a burned
	// tracker.
	burned := NewSLOTracker(SLOConfig{})
	for i := 0; i < 100; i++ {
		burned.Record(10 * time.Second)
	}
	fleet.status = HealthReady
	code, body = getHealthz(t, ServeState{Health: burned, Fleet: fleet})
	if code != 200 || body["status"] != HealthReady {
		t.Fatalf("ready node, burned tracker: code %d status %v, want 200 ready", code, body["status"])
	}
	if short, _ := body["short"].(map[string]any); short["bad"] != 100.0 {
		t.Fatalf("short window %v, want the tracker's 100 bad verdicts", body["short"])
	}
}

func TestHealthzDrainingOverrides(t *testing.T) {
	slo := NewSLOTracker(SLOConfig{})
	slo.Record(time.Millisecond)
	fleet := &fakeNode{status: HealthDraining, active: 3, max: 100}
	code, body := getHealthz(t, ServeState{Health: slo, Fleet: fleet})
	if code != 503 || body["status"] != HealthDraining {
		t.Fatalf("code %d status %v, want 503 draining", code, body["status"])
	}
	if body["sessions_active"] != 3.0 || body["sessions_max"] != 100.0 {
		t.Fatalf("session counts: %v / %v", body["sessions_active"], body["sessions_max"])
	}
}
