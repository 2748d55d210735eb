package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// stubProm is a minimal PromWriter for mux tests (the real implementation
// lives in internal/metrics, which obs must not import).
type stubProm struct{}

func (stubProm) WritePrometheus(w io.Writer, namespace string) {
	fmt.Fprintf(w, "# TYPE %s_up counter\n%s_up 1\n", namespace, namespace)
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", path, err)
	}
	return resp.StatusCode, string(b), resp.Header.Get("Content-Type")
}

func TestMuxEmptyState(t *testing.T) {
	srv := httptest.NewServer(NewMux(ServeState{}))
	defer srv.Close()

	if code, body, _ := get(t, srv, "/"); code != 200 || !strings.Contains(body, "eddie debug server") {
		t.Errorf("index: code %d body %q", code, body)
	}
	if code, _, _ := get(t, srv, "/nope"); code != 404 {
		t.Errorf("unknown path code %d, want 404", code)
	}
	for _, path := range []string{"/metrics", "/eddie/last-alarm", "/eddie/flight", "/eddie/trace", "/eddie/fleet"} {
		if code, _, _ := get(t, srv, path); code != 404 {
			t.Errorf("%s with nil state: code %d, want 404", path, code)
		}
	}
	if code, body, _ := get(t, srv, "/debug/vars"); code != 200 || !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Errorf("/debug/vars: code %d body %q", code, body)
	}
	if code, _, _ := get(t, srv, "/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/: code %d, want 200", code)
	}
}

func TestMuxFullState(t *testing.T) {
	rec := NewRecorder()
	rec.Track("stage").Start("span").End()
	fl := NewFlightRecorder(8)
	fl.Record(&WindowRecord{Window: 0, Region: 2})
	srv := httptest.NewServer(NewMux(ServeState{
		Metrics: stubProm{},
		Flight:  fl,
		Trace:   rec,
	}))
	defer srv.Close()

	code, body, ct := get(t, srv, "/metrics")
	if code != 200 || !strings.Contains(body, "eddie_up 1") {
		t.Errorf("/metrics: code %d body %q", code, body)
	}
	if !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}

	// No alarm yet: JSON null with 404.
	code, body, ct = get(t, srv, "/eddie/last-alarm")
	if code != 404 || strings.TrimSpace(body) != "null" || !strings.Contains(ct, "json") {
		t.Errorf("pre-alarm last-alarm: code %d body %q ct %q", code, body, ct)
	}

	fl.Record(&WindowRecord{Window: 1, Region: 2, Reported: true, RejectedRanks: []int{0, 3}})
	fl.Alarm(1, 0.5, 2, 3, []int{0, 3})
	code, body, _ = get(t, srv, "/eddie/last-alarm")
	if code != 200 {
		t.Fatalf("last-alarm code %d, want 200", code)
	}
	var dump AlarmDump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("last-alarm not JSON: %v", err)
	}
	if dump.Window != 1 || len(dump.RejectedRanks) != 2 || len(dump.Records) != 2 {
		t.Errorf("alarm dump %+v", dump)
	}

	code, body, _ = get(t, srv, "/eddie/flight")
	if code != 200 {
		t.Fatalf("flight code %d", code)
	}
	var flight struct {
		Seen    int            `json:"seen"`
		Alarms  int            `json:"alarms"`
		Records []WindowRecord `json:"records"`
	}
	if err := json.Unmarshal([]byte(body), &flight); err != nil {
		t.Fatalf("flight not JSON: %v", err)
	}
	if flight.Seen != 2 || flight.Alarms != 1 || len(flight.Records) != 2 {
		t.Errorf("flight state %+v", flight)
	}

	code, body, _ = get(t, srv, "/eddie/trace")
	if code != 200 {
		t.Fatalf("trace code %d", code)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	if len(tr.TraceEvents) != 2 { // meta + span
		t.Errorf("trace has %d events, want 2", len(tr.TraceEvents))
	}
}

// stubFleet is a minimal FleetNode (the real ones are the fleet
// server and the coordinator, which obs must not import).
type stubFleet struct{}

func (stubFleet) ActiveSessions() (int, int) { return 3, 16 }
func (stubFleet) HealthStatus() string       { return HealthReady }

func (stubFleet) FleetSessionsPage(offset, limit int) (any, int, int) {
	return map[string]any{"active": 3, "max": 16, "draining": false}, 3, 3
}

func TestMuxFleetListing(t *testing.T) {
	srv := httptest.NewServer(NewMux(ServeState{Fleet: stubFleet{}}))
	defer srv.Close()

	code, body, ct := get(t, srv, "/eddie/fleet")
	if code != 200 || !strings.Contains(ct, "json") {
		t.Fatalf("/eddie/fleet: code %d ct %q", code, ct)
	}
	var got struct {
		Active   int  `json:"active"`
		Max      int  `json:"max"`
		Draining bool `json:"draining"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("fleet listing not JSON: %v", err)
	}
	if got.Active != 3 || got.Max != 16 || got.Draining {
		t.Errorf("fleet listing %+v", got)
	}
}

// stubPagedFleet implements FleetNode on top of a fixed session
// list, recording the offset/limit it was asked for.
type stubPagedFleet struct {
	stubFleet
	total, active       int
	gotOffset, gotLimit int
}

func (s *stubPagedFleet) FleetSessionsPage(offset, limit int) (any, int, int) {
	s.gotOffset, s.gotLimit = offset, limit
	n := s.total - offset
	if n < 0 {
		n = 0
	}
	if n > limit {
		n = limit
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = offset + i
	}
	return map[string]any{"sessions": ids, "offset": offset, "limit": limit}, s.total, s.active
}

func TestMuxFleetPaging(t *testing.T) {
	fl := &stubPagedFleet{total: 2500, active: 40}
	srv := httptest.NewServer(NewMux(ServeState{Fleet: fl}))
	defer srv.Close()

	page := func(t *testing.T, path string) (sessions []int, offset, limit int) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: code %d", path, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Eddie-Fleet-Total"); got != "2500" {
			t.Errorf("X-Eddie-Fleet-Total %q, want 2500", got)
		}
		if got := resp.Header.Get("X-Eddie-Fleet-Active"); got != "40" {
			t.Errorf("X-Eddie-Fleet-Active %q, want 40", got)
		}
		var body struct {
			Sessions []int `json:"sessions"`
			Offset   int   `json:"offset"`
			Limit    int   `json:"limit"`
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &body); err != nil {
			t.Fatalf("GET %s: not JSON: %v", path, err)
		}
		return body.Sessions, body.Offset, body.Limit
	}

	// Default page: offset 0, the default limit.
	sessions, offset, limit := page(t, "/eddie/fleet")
	if offset != 0 || limit != DefaultFleetPageLimit || len(sessions) != DefaultFleetPageLimit {
		t.Errorf("default page: offset %d limit %d len %d", offset, limit, len(sessions))
	}

	// Explicit window lands where asked.
	sessions, offset, limit = page(t, "/eddie/fleet?offset=2400&limit=50")
	if offset != 2400 || limit != 50 || len(sessions) != 50 || sessions[0] != 2400 {
		t.Errorf("explicit page: offset %d limit %d sessions %v...", offset, limit, sessions[:1])
	}

	// Past the end: empty page, headers still present.
	if sessions, _, _ = page(t, "/eddie/fleet?offset=99999"); len(sessions) != 0 {
		t.Errorf("past-the-end page has %d sessions", len(sessions))
	}

	// An oversized limit is clamped, not rejected.
	page(t, "/eddie/fleet?limit=999999")
	if fl.gotLimit != MaxFleetPageLimit {
		t.Errorf("oversized limit reached pager as %d, want clamp to %d", fl.gotLimit, MaxFleetPageLimit)
	}

	// Malformed and out-of-range parameters are a 400, not a panic or a
	// silent default.
	for _, q := range []string{"?offset=abc", "?limit=xyz", "?offset=-1", "?limit=0", "?limit=-5"} {
		resp, err := srv.Client().Get(srv.URL + "/eddie/fleet" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("GET %s: code %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestMuxNamespace(t *testing.T) {
	srv := httptest.NewServer(NewMux(ServeState{Metrics: stubProm{}, Namespace: "custom"}))
	defer srv.Close()
	if _, body, _ := get(t, srv, "/metrics"); !strings.Contains(body, "custom_up 1") {
		t.Errorf("namespace not forwarded: %q", body)
	}
}
