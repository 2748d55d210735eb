package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// PromWriter renders itself in Prometheus text exposition format;
// metrics.Registry implements it (obs stays stdlib-only by depending on
// the interface rather than the package).
type PromWriter interface {
	WritePrometheus(w io.Writer, namespace string)
}

// FleetNode is a fleet node the debug mux serves: its paged live
// session listing, its session counts and its health verdict. The fleet
// server and the coordinator implement it (obs stays stdlib-only by
// depending on the interface rather than the fleet package).
type FleetNode interface {
	// FleetSessionsPage returns one listing page plus the listing total
	// and live-session count (surfaced as response headers).
	FleetSessionsPage(offset, limit int) (page any, total, active int)
	// ActiveSessions returns the live session count and the admission
	// bound.
	ActiveSessions() (active, max int)
	// HealthStatus is the node's own verdict (HealthReady,
	// HealthDegraded, HealthOverloaded or HealthDraining): the status
	// /eddie/healthz serves.
	HealthStatus() string
}

// DefaultFleetPageLimit is /eddie/fleet's page size when the request
// has no explicit ?limit=.
const DefaultFleetPageLimit = 1000

// MaxFleetPageLimit caps an explicit ?limit= (one page stays a bounded
// amount of JSON no matter what the query says).
const MaxFleetPageLimit = 10000

// ServeState bundles everything the debug mux exposes. Any field may be
// nil; the corresponding endpoint then reports 404/empty.
type ServeState struct {
	// Metrics serves /metrics in Prometheus text format.
	Metrics PromWriter
	// Namespace prefixes every exposed metric name ("eddie" if empty).
	Namespace string
	// Flight serves /eddie/last-alarm and /eddie/flight.
	Flight *FlightRecorder
	// Trace serves /eddie/trace (a live Chrome trace snapshot).
	Trace *Recorder
	// Fleet serves /eddie/fleet (the live device-session listing) and
	// gives /eddie/healthz its status and session counts.
	Fleet FleetNode
	// Health fills /eddie/healthz's burn-rate windows, and gives its
	// status when no Fleet node is attached.
	Health *SLOTracker
	// Alarms serves /eddie/alarms (live alarm SSE streaming).
	Alarms *AlarmStream
}

// NewMux builds the detector's debug HTTP mux:
//
//	/debug/vars        expvar JSON (includes registries Publish-ed there)
//	/debug/pprof/*     runtime profiling
//	/metrics           Prometheus text exposition of the registry
//	/eddie/last-alarm  latest flight-recorder alarm dump (JSON)
//	/eddie/flight      current flight-recorder ring contents (JSON)
//	/eddie/fleet       live device-session listing (JSON)
//	/eddie/healthz     health verdict with SLO burn-rate windows (JSON;
//	                   503 when overloaded or draining)
//	/eddie/alarms      live alarm stream (Server-Sent Events)
//	/eddie/trace       Chrome trace-event JSON of the spans so far
//	/                  plain-text index of the above
func NewMux(s ServeState) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ns := s.Namespace
	if ns == "" {
		ns = "eddie"
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if s.Metrics == nil {
			http.Error(w, "no metrics registry attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.Metrics.WritePrometheus(w, ns)
	})

	mux.HandleFunc("/eddie/last-alarm", func(w http.ResponseWriter, r *http.Request) {
		if s.Flight == nil {
			http.Error(w, "no flight recorder attached", http.StatusNotFound)
			return
		}
		b, err := s.Flight.LastAlarmJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if s.Flight.LastAlarm() == nil {
			w.WriteHeader(http.StatusNotFound)
		}
		w.Write(append(b, '\n'))
	})

	mux.HandleFunc("/eddie/flight", func(w http.ResponseWriter, r *http.Request) {
		if s.Flight == nil {
			http.Error(w, "no flight recorder attached", http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]any{
			"seen":    s.Flight.Seen(),
			"alarms":  s.Flight.Alarms(),
			"records": s.Flight.Recent(),
		})
	})

	mux.HandleFunc("/eddie/fleet", func(w http.ResponseWriter, r *http.Request) {
		if s.Fleet == nil {
			http.Error(w, "no fleet server attached", http.StatusNotFound)
			return
		}
		offset, err := queryInt(r, "offset", 0)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		limit, err := queryInt(r, "limit", DefaultFleetPageLimit)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if offset < 0 || limit <= 0 {
			http.Error(w, "offset must be >= 0 and limit > 0", http.StatusBadRequest)
			return
		}
		if limit > MaxFleetPageLimit {
			limit = MaxFleetPageLimit
		}
		page, total, active := s.Fleet.FleetSessionsPage(offset, limit)
		w.Header().Set("X-Eddie-Fleet-Total", strconv.Itoa(total))
		w.Header().Set("X-Eddie-Fleet-Active", strconv.Itoa(active))
		writeJSON(w, page)
	})

	mux.HandleFunc("/eddie/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := s.Health.Health() // nil-safe: ready with empty windows
		body := map[string]any{
			"budget_ms": h.BudgetMillis,
			"objective": h.Objective,
			"short":     h.Short,
			"long":      h.Long,
		}
		if s.Fleet != nil {
			// The node's verdict is the one its probes report too, so
			// a coordinator and a load balancer cannot disagree.
			h.Status = s.Fleet.HealthStatus()
			active, limit := s.Fleet.ActiveSessions()
			body["sessions_active"] = active
			body["sessions_max"] = limit
		}
		body["status"] = h.Status
		code := http.StatusOK
		if h.Status == HealthOverloaded || h.Status == HealthDraining {
			// 503 lets load balancers and the future coordinator act on
			// the verdict without parsing the body; degraded stays 200
			// (the node still serves, it is a paging signal not an
			// eviction one).
			code = http.StatusServiceUnavailable
		}
		b, err := json.MarshalIndent(body, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		w.Write(append(b, '\n'))
	})

	mux.HandleFunc("/eddie/alarms", handleAlarmSSE(s.Alarms))

	mux.HandleFunc("/eddie/trace", func(w http.ResponseWriter, r *http.Request) {
		if s.Trace == nil {
			http.Error(w, "no trace recorder attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		s.Trace.WriteChromeTrace(w)
	})

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "eddie debug server\n\n"+
			"/debug/vars        expvar JSON\n"+
			"/debug/pprof/      profiling\n"+
			"/metrics           Prometheus text exposition\n"+
			"/eddie/last-alarm  latest alarm dump with decision provenance\n"+
			"/eddie/flight      flight-recorder ring contents\n"+
			"/eddie/fleet       live device-session listing\n"+
			"/eddie/healthz     SLO burn-rate health verdict\n"+
			"/eddie/alarms      live alarm stream (Server-Sent Events)\n"+
			"/eddie/trace       Chrome trace-event JSON (load in Perfetto)\n")
	})
	return mux
}

// queryInt parses an optional integer query parameter.
func queryInt(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %v", name, err)
	}
	return n, nil
}

// writeJSON writes v as indented JSON with the right content type.
func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}
