package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"eddie/internal/metrics"
	"eddie/internal/obs"
	"eddie/internal/par"
	"eddie/internal/stream"
)

// writeTimeout bounds each outbound frame write.
const writeTimeout = 10 * time.Second

// maxHistoryWindows bounds each session monitor's retained per-window
// outcome history (stream.Config.MaxHistoryWindows): a device session
// lives for days, so its history cannot grow with the stream.
const maxHistoryWindows = 4096

// Config configures a fleet server.
type Config struct {
	// Models resolves workload names from session hellos to trained
	// models. Required.
	Models ModelSource
	// Stream is the per-session detector template: STFT, peak and
	// monitor configuration. Each session gets its own copy (and its own
	// flight recorder). The session overrides the template's per-session
	// hooks (Tap, GroundTruth, Impair and the monitor's Stats and Flight
	// are dropped), its Metrics (bound to the server registry) and its
	// MaxHistoryWindows (fixed at 4096). STFT.SampleRate etc. must match
	// what the models were trained under.
	Stream stream.Config
	// MaxSessions bounds concurrent device sessions; further connections
	// are refused with a FrameError. Zero derives the bound from
	// physical memory (a quarter of RAM at ~256 KiB per session, clamped
	// to [64, 262144]): sessions are mostly idle and their detector work
	// is multiplexed over the shard pool, so memory — not CPU count — is
	// what limits density.
	MaxSessions int
	// Shards is the number of processor goroutines the detector work is
	// multiplexed over. Sessions are hashed onto shards by device id;
	// each shard drains a session's whole frame inbox per scheduling
	// turn. Zero means par.Parallelism().
	Shards int
	// IdleTimeout is the per-frame read deadline: a session that sends
	// nothing for this long is torn down. Zero means 30s.
	IdleTimeout time.Duration
	// MaxPendingSamples is the per-session backpressure cap: when a
	// session has this many decoded samples waiting for the detector,
	// its reader stops draining the socket until the detector catches
	// up, which pushes back on the device through TCP flow control.
	// Zero means 1<<20 (one million samples ≈ 8 MB per slow session).
	MaxPendingSamples int
	// Registry receives fleet-wide and per-device counters. Nil creates
	// a private registry (exposed via Server.Registry).
	Registry *metrics.Registry
	// Journal, when non-nil, durably records session lifecycle events
	// (connect, drain, disconnect, backpressure) and every alarm dump.
	// The server syncs it at shutdown but never closes it — the journal
	// outlives the server (its owner recovers it on the next start).
	Journal *obs.Journal
	// Alarms, when non-nil, receives every alarm as a JSON-encoded
	// JournalEvent for live streaming (/eddie/alarms). The server closes
	// it when shutdown completes, ending every SSE subscriber.
	Alarms *obs.AlarmStream
	// SLO, when non-nil, receives every scheduling turn's
	// frame-to-verdict latency for the /eddie/healthz burn-rate verdict.
	SLO *obs.SLOTracker
	// Logf, when non-nil, receives one line per session lifecycle event.
	Logf func(format string, args ...any)
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = defaultMaxSessions()
	}
	if c.Shards <= 0 {
		c.Shards = par.Parallelism()
		if c.Shards < 1 {
			c.Shards = 1
		}
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 30 * time.Second
	}
	if c.MaxPendingSamples <= 0 {
		c.MaxPendingSamples = 1 << 20
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	return c
}

// Server hosts one streaming detector session per connected device.
type Server struct {
	cfg Config
	reg *metrics.Registry

	// Fleet-wide counters.
	cAccepted   *metrics.Counter // connections accepted
	cOpened     *metrics.Counter // sessions past a valid hello
	cClosed     *metrics.Counter // sessions ended (any reason)
	cRefused    *metrics.Counter // connections refused at capacity
	cErrors     *metrics.Counter // sessions ended by a protocol error
	cReports    *metrics.Counter // anomaly reports streamed out
	cBackpress  *metrics.Counter // reader stalls on the pending cap
	hSessionWin *metrics.Histogram

	// shards is the shared processor pool.
	shards    []*shard
	shardStop sync.Once
	obsStop   sync.Once // journal sync + alarm-stream close at shutdown

	mu       sync.Mutex
	ln       net.Listener
	sessions map[int64]*session
	devices  int            // sessions holding a MaxSessions slot (past a valid hello)
	live     map[string]int // sessions whose model loaded, per workload
	recent   []SessionInfo  // ring of recently closed sessions
	nextID   int64
	draining bool
	closed   bool

	wg sync.WaitGroup // live sessions (released in finish)
}

// recentClosedCap bounds the recently-closed session ring in session
// listings.
const recentClosedCap = 32

// NewServer creates a fleet server. Call Serve (or ListenAndServe) to
// start accepting devices.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Models == nil {
		return nil, fmt.Errorf("fleet: config needs a model source")
	}
	if err := cfg.Stream.STFT.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: stream template: %w", err)
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		sessions: map[int64]*session{},
		live:     map[string]int{},
	}
	s.cAccepted = s.reg.Counter("fleet_conns_accepted")
	s.cOpened = s.reg.Counter("fleet_sessions_opened")
	s.cClosed = s.reg.Counter("fleet_sessions_closed")
	s.cRefused = s.reg.Counter("fleet_conns_refused")
	s.cErrors = s.reg.Counter("fleet_session_errors")
	s.cReports = s.reg.Counter("fleet_reports")
	s.cBackpress = s.reg.Counter("fleet_backpressure_stalls")
	s.hSessionWin = s.reg.Histogram("fleet_session_windows",
		[]float64{16, 64, 256, 1024, 4096, 16384, 65536})
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = newShard(s, i, shardLabel(i))
	}
	return s, nil
}

// Registry returns the server's metrics registry (for /metrics wiring).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// logf logs one line if a logger is configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ListenAndServe listens on addr and serves until Shutdown or Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts device connections on ln until the listener is closed
// by Shutdown or Close. It returns nil after a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("fleet: server already shut down")
	}
	if s.ln != nil {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("fleet: server already serving")
	}
	s.ln = ln
	s.mu.Unlock()
	s.logf("fleet: serving on %s (max %d sessions)", ln.Addr(), s.cfg.MaxSessions)
	s.cfg.Journal.Event("server_start", "", 0, "", ln.Addr().String())

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopping := s.draining || s.closed
			s.mu.Unlock()
			if stopping {
				return nil
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return err
		}
		s.cAccepted.Inc()
		if !s.admit(conn) {
			continue
		}
	}
}

// controlHeadroom is how many connections beyond MaxSessions the accept
// path admits. The strict MaxSessions bound applies to device sessions
// at hello time (claimDeviceSlot); the headroom exists so coordinator
// health probes and listing queries still get answered when the backend
// is at its device cap — a probe refused for capacity would read as
// "backend down" and trigger a spurious re-home exactly when the fleet
// is busiest.
const controlHeadroom = 8

// admit registers a new connection under the connection bound; refused
// connections get an error frame and are closed. Returns false when the
// connection was refused.
func (s *Server) admit(conn net.Conn) bool {
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		s.refuse(conn, "server draining")
		return false
	}
	if len(s.sessions) >= s.cfg.MaxSessions+controlHeadroom {
		s.mu.Unlock()
		s.cRefused.Inc()
		s.refuse(conn, fmt.Sprintf("at capacity (%d sessions)", s.cfg.MaxSessions))
		return false
	}
	s.nextID++
	sess := newSession(s, s.nextID, conn)
	s.sessions[sess.id] = sess
	s.wg.Add(1)
	s.mu.Unlock()
	// The reader goroutine stays thin (decode + enqueue); detector work
	// and session teardown happen on the session's shard. finish —
	// reached exactly once via finalize — releases the wait group.
	go sess.run()
	return true
}

// refuse sends a best-effort error frame and closes the connection.
func (s *Server) refuse(conn net.Conn, why string) {
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	writeFrame(conn, FrameError, mustJSON(ErrorInfo{Error: "fleet: " + why}))
	conn.Close()
}

// claimDeviceSlot reserves one of the MaxSessions device slots for a
// session that presented a valid hello. The check and the increment are
// one critical section, so the device cap is exact no matter how many
// handshakes race.
func (s *Server) claimDeviceSlot() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed || s.devices >= s.cfg.MaxSessions {
		return false
	}
	s.devices++
	return true
}

// finish unregisters an ended session and records its summary. Called
// exactly once per admitted session, from session.finalize.
func (s *Server) finish(sess *session) {
	defer s.wg.Done()
	if sess.control.Load() {
		// Control connections (coordinator probes and listing queries)
		// release their slot without touching the listing ring, the
		// journal, or the session counters — a probe every second would
		// otherwise drown the real session history.
		s.mu.Lock()
		delete(s.sessions, sess.id)
		s.mu.Unlock()
		return
	}
	info := sess.info()
	info.Active = false
	s.mu.Lock()
	delete(s.sessions, sess.id)
	if sess.slot.Load() {
		s.devices--
	}
	if info.Workload != "" {
		s.countWorkloadLocked(info.Workload, -1)
	}
	s.recent = append(s.recent, info)
	if len(s.recent) > recentClosedCap {
		s.recent = append(s.recent[:0], s.recent[len(s.recent)-recentClosedCap:]...)
	}
	s.mu.Unlock()
	s.cClosed.Inc()
	if info.Error != "" {
		s.cErrors.Inc()
	}
	s.hSessionWin.Observe(float64(info.Windows))
	s.cfg.Journal.Event("disconnect", info.Device, sess.id, sess.shardLabel(), info.Error)
	s.logf("fleet: session %d (%s/%s) closed: %d windows, %d reports%s",
		sess.id, info.Device, info.Workload, info.Windows, info.Reports,
		errSuffix(info.Error))
}

// countWorkloadLocked moves a workload's live-session count by delta and
// publishes it on the fleet_arena_sessions/<workload> gauge. Caller
// holds s.mu, so the gauge never lags the count.
func (s *Server) countWorkloadLocked(workload string, delta int) {
	n := s.live[workload] + delta
	if n > 0 {
		s.live[workload] = n
	} else {
		delete(s.live, workload)
	}
	s.reg.Gauge("fleet_arena_sessions/" + workload).Set(int64(n))
}

func errSuffix(e string) string {
	if e == "" {
		return ""
	}
	return ", error: " + e
}

// Shutdown gracefully drains the server: stop accepting, tell every
// session to finish processing what it has already received, and wait
// for them (or for ctx). Sessions still open when ctx expires are
// force-closed. Safe to call multiple times.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining || s.closed
	s.draining = true
	ln := s.ln
	var sessions []*session
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	if ln != nil && !already {
		ln.Close()
	}
	for _, sess := range sessions {
		sess.drain()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.stopShards()
		s.finishObs("drained")
		return nil
	case <-ctx.Done():
		s.Close()
		<-done
		return ctx.Err()
	}
}

// finishObs ends the observability plane exactly once when the last
// session is gone: the shutdown is journaled and made durable, and the
// alarm stream closes so every SSE subscriber sees a clean end-of-
// stream instead of a hang. The journal itself stays open — its owner
// (cmd/eddie) closes it after the server is done.
func (s *Server) finishObs(detail string) {
	s.obsStop.Do(func() {
		s.cfg.Journal.Event("server_stop", "", 0, "", detail)
		s.cfg.Journal.Sync()
		s.cfg.Alarms.Close()
	})
}

// Close force-closes the listener and every session without draining.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	var sessions []*session
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
		if errors.Is(err, net.ErrClosed) {
			err = nil
		}
	}
	for _, sess := range sessions {
		sess.close()
	}
	// The shard pool must outlive every session (force-closed sessions
	// still finalize on their shard), so it stops once the last one
	// finishes.
	go func() {
		s.wg.Wait()
		s.stopShards()
		s.finishObs("closed")
	}()
	return err
}

// Draining implements obs.FleetHealth: true once Shutdown (or Close)
// has been requested.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.closed
}

// ActiveSessions implements obs.FleetHealth: the live session count and
// the configured bound.
func (s *Server) ActiveSessions() (active, limit int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.devices, s.cfg.MaxSessions
}

// SessionInfo describes one device session for the /eddie/fleet listing.
type SessionInfo struct {
	Session   int64  `json:"session"`
	Device    string `json:"device"`
	Workload  string `json:"workload"`
	Remote    string `json:"remote"`
	StartedAt string `json:"startedAt"`
	// LastActivity is the RFC3339 time of the session's newest enqueued
	// frame (empty before any samples arrive).
	LastActivity string `json:"lastActivity,omitempty"`
	Active       bool   `json:"active"`
	Samples      int64  `json:"samples"`
	Sanitized    int64  `json:"sanitized"`
	// QueueDepth is the number of decoded samples sitting in the
	// session's inbox, waiting for its shard's next scheduling turn.
	QueueDepth int     `json:"queueDepth"`
	Windows    int     `json:"windows"`
	Reports    int     `json:"reports"`
	LastWindow int     `json:"lastReportWindow"`
	LastTime   float64 `json:"lastReportTimeSec"`
	Error      string  `json:"error,omitempty"`
}

// DefaultSessionPageLimit bounds one /eddie/fleet listing page: at
// 100k+ sessions per node a full dump would render megabytes of JSON
// per GET, so listings page by default.
const DefaultSessionPageLimit = 1000

// SessionsPage returns one page of the session listing — active
// sessions in id order followed by the recently closed ring — plus the
// listing total and the live-session count. A limit <= 0 falls back to
// DefaultSessionPageLimit.
func (s *Server) SessionsPage(offset, limit int) (page []SessionInfo, total, active int) {
	if offset < 0 {
		offset = 0
	}
	if limit <= 0 {
		limit = DefaultSessionPageLimit
	}
	s.mu.Lock()
	act := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		if sess.control.Load() {
			continue
		}
		act = append(act, sess)
	}
	recent := append([]SessionInfo(nil), s.recent...)
	s.mu.Unlock()
	sort.Slice(act, func(i, j int) bool { return act[i].id < act[j].id })
	total = len(act) + len(recent)
	active = len(act)
	page = make([]SessionInfo, 0, min(limit, total))
	for i := offset; i < total && len(page) < limit; i++ {
		if i < len(act) {
			page = append(page, act[i].info())
		} else {
			page = append(page, recent[i-len(act)])
		}
	}
	return page, total, active
}

// FleetSessionsPage implements obs.SessionPager for the /eddie/fleet
// debug endpoint: one listing page plus fleet-level state, with totals
// for the paging headers.
func (s *Server) FleetSessionsPage(offset, limit int) (any, int, int) {
	page, total, active := s.SessionsPage(offset, limit)
	s.mu.Lock()
	draining := s.draining
	live := make(map[string]int, len(s.live))
	for w, n := range s.live {
		live[w] = n
	}
	s.mu.Unlock()
	return map[string]any{
		"active":        active,
		"max":           s.cfg.MaxSessions,
		"shards":        len(s.shards),
		"draining":      draining,
		"arenas":        live,
		"shard_latency": s.shardLatency(),
		"total":         total,
		"offset":        offset,
		"limit":         limit,
		"sessions":      page,
	}, total, active
}

// loadReport assembles the control-RPC load answer the coordinator's
// health probes consume: live sessions against the admission cap,
// scheduling pressure, the worst per-shard p99 frame-to-verdict
// latency, and the SLO health verdict.
func (s *Server) loadReport() LoadReport {
	s.mu.Lock()
	rep := LoadReport{
		Active:   s.devices, // slot holders only: not probes, not half-open handshakes
		Max:      s.cfg.MaxSessions,
		Draining: s.draining || s.closed,
	}
	s.mu.Unlock()
	for _, sh := range s.shards {
		rep.QueueDepth += int(sh.gDepth.Value())
		snap := sh.hVerdict.Snapshot()
		if snap.Count == 0 {
			continue
		}
		if ms := float64(snap.P99) / 1e6; ms > rep.P99Ms {
			rep.P99Ms = ms
		}
	}
	switch {
	case rep.Draining:
		rep.Status = obs.HealthDraining
	case s.cfg.SLO != nil:
		rep.Status = s.cfg.SLO.Health().Status
	default:
		rep.Status = obs.HealthReady
	}
	return rep
}

// shardLatency summarizes each shared shard's frame-to-verdict latency
// histogram in milliseconds (shards with no completed turns are
// omitted).
func (s *Server) shardLatency() map[string]any {
	out := map[string]any{}
	toMS := func(ns int64) float64 { return float64(ns) / 1e6 }
	for _, sh := range s.shards {
		snap := sh.hVerdict.Snapshot()
		if snap.Count == 0 {
			continue
		}
		out[sh.label] = map[string]any{
			"count":   snap.Count,
			"mean_ms": snap.Mean / 1e6,
			"p50_ms":  toMS(snap.P50),
			"p90_ms":  toMS(snap.P90),
			"p99_ms":  toMS(snap.P99),
			"max_ms":  toMS(snap.Max),
		}
	}
	return out
}
