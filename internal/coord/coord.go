package coord

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"eddie/internal/fleet"
	"eddie/internal/metrics"
	"eddie/internal/obs"
)

// Deadlines on device connections.
const (
	// helloTimeout bounds the hello read on an accepted connection.
	helloTimeout = 10 * time.Second
	// writeTimeout bounds each outbound frame write.
	writeTimeout = 10 * time.Second
)

// downAfter is how many consecutive bad probes (unreachable, draining,
// or a sustained-overload SLO verdict) drain a backend and re-home its
// ring span.
const downAfter = 3

// Config configures a Coordinator.
type Config struct {
	// Backends lists the fleet backends' device-facing addresses
	// (host:port). Required, at least one.
	Backends []string
	// ProbeInterval is the health-probe period per backend; one probe
	// RPC (dial + query + report) may take twice as long. Zero means 1s.
	ProbeInterval time.Duration
	// PerBackendCap, when positive, lowers the per-backend admission
	// bound below what each backend reports as its own MaxSessions —
	// the knob for running a fleet at a deliberate utilization ceiling
	// (and for benchmarks that emulate fixed per-node capacity). Zero
	// trusts the backends' reported caps.
	PerBackendCap int
	// Registry receives coordinator metrics (coord_backend_up,
	// coord_rehomes, coord_redirects, ring balance). Nil creates a
	// private registry.
	Registry *metrics.Registry
	// Journal, when non-nil, durably records backend health transitions
	// (`backend_up`, `rehome`) and coordinator lifecycle events. Never
	// closed by the coordinator.
	Journal *obs.Journal
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	return c
}

// backend is one fronted fleet backend: its ring membership, health
// state and the persistent probe connection.
type backend struct {
	addr       string
	gUp        *metrics.Gauge
	cRedirects *metrics.Counter

	mu       sync.Mutex
	conn     net.Conn // persistent probe connection (re-dialed on error)
	br       *bufio.Reader
	up       bool
	failures int              // consecutive bad probes
	probed   bool             // at least one probe round completed
	report   fleet.LoadReport // last successful load report
	assigned int              // live load estimate: report.Active + redirects since
	// redirectSeq counts redirects ever issued to this backend. Each
	// probe snapshots it at send time and reconciles assigned to
	// report.Active plus the redirects issued after the snapshot, so a
	// connection surge between probes is never wiped from the estimate
	// (a redirected device that has not completed its hello yet is
	// invisible in report.Active).
	redirectSeq int64
	// cap is the admission bound the coordinator enforces for this
	// backend: report.Max, lowered to Config.PerBackendCap when set.
	cap int
}

// healthy reports whether the backend is in the ring.
func (b *backend) healthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.up
}

// load is the backend's estimated live session count.
func (b *backend) load() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.assigned
}

// atCap reports whether the backend's estimated load has reached its
// admission cap (bounded-load rejection; cap 0 means the cap is
// unknown, so never reject on it).
func (b *backend) atCap() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cap > 0 && b.assigned >= b.cap
}

// noteAssigned counts one redirect toward the load estimate, reconciled
// by the next load report.
func (b *backend) noteAssigned() {
	b.mu.Lock()
	b.assigned++
	b.redirectSeq++
	b.mu.Unlock()
}

// Coordinator fronts N fleet backends: devices say hello here and are
// redirected to the backend owning their ring span.
type Coordinator struct {
	cfg      Config
	reg      *metrics.Registry
	ring     *Ring
	backends []*backend // config order
	byAddr   map[string]*backend

	cHellos    *metrics.Counter // hellos answered (any outcome)
	cRedirects *metrics.Counter // redirects issued
	cRefused   *metrics.Counter // hellos refused (bad hello / old client / no backend)
	cRehomes   *metrics.Counter // ring spans re-homed off a dead backend
	gUpCount   *metrics.Gauge   // backends currently in the ring
	gBalance   *metrics.FloatGauge

	mu       sync.Mutex
	ln       net.Listener
	draining bool
	closed   bool

	ready     chan struct{} // closed once every backend's first probe lands
	readyLeft int
	readyOnce sync.Once
	stop      chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup // probe loops + connection handlers
}

// New creates a coordinator and starts its backend health probes; call
// Serve (or ListenAndServe) to start answering devices. Backends enter
// the ring on their first successful probe — WaitReady blocks until the
// first probe round resolved every backend one way or the other.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("coord: config needs at least one backend")
	}
	seen := map[string]bool{}
	for _, a := range cfg.Backends {
		if a == "" {
			return nil, errors.New("coord: empty backend address")
		}
		if seen[a] {
			return nil, fmt.Errorf("coord: duplicate backend %s", a)
		}
		seen[a] = true
	}
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:       cfg,
		reg:       cfg.Registry,
		ring:      NewRing(DefaultVirtualNodes),
		byAddr:    map[string]*backend{},
		ready:     make(chan struct{}),
		readyLeft: len(cfg.Backends),
		stop:      make(chan struct{}),
	}
	c.cHellos = c.reg.Counter("coord_hellos")
	c.cRedirects = c.reg.Counter("coord_redirects")
	c.cRefused = c.reg.Counter("coord_refused")
	c.cRehomes = c.reg.Counter("coord_rehomes")
	c.gUpCount = c.reg.Gauge("coord_backends_up")
	c.gBalance = c.reg.FloatGauge("coord_ring_balance")
	for _, addr := range cfg.Backends {
		b := &backend{
			addr:       addr,
			gUp:        c.reg.Gauge("coord_backend_up/" + addr),
			cRedirects: c.reg.Counter("coord_backend_redirects/" + addr),
		}
		c.backends = append(c.backends, b)
		c.byAddr[addr] = b
		c.wg.Add(1)
		go c.probeLoop(b)
	}
	return c, nil
}

// Registry returns the coordinator's metrics registry.
func (c *Coordinator) Registry() *metrics.Registry { return c.reg }

// logf logs one line if a logger is configured.
func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// WaitReady blocks until every backend's first health probe has
// resolved (up or down), the timeout passes, or the coordinator stops.
// Serving before readiness is safe — hellos are refused until a backend
// joins the ring — but callers that just started their backends get a
// deterministic handoff by waiting.
func (c *Coordinator) WaitReady(timeout time.Duration) error {
	select {
	case <-c.ready:
		return nil
	case <-c.stop:
		return errors.New("coord: coordinator stopped")
	case <-time.After(timeout):
		return fmt.Errorf("coord: not ready after %v", timeout)
	}
}

// firstProbe marks one backend's first probe round complete.
func (c *Coordinator) firstProbe() {
	c.mu.Lock()
	c.readyLeft--
	done := c.readyLeft <= 0
	c.mu.Unlock()
	if done {
		c.readyOnce.Do(func() { close(c.ready) })
	}
}

// probeLoop probes one backend forever: immediately on start, then
// every ProbeInterval until the coordinator stops.
func (c *Coordinator) probeLoop(b *backend) {
	defer c.wg.Done()
	c.probe(b)
	c.firstProbe()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			b.mu.Lock()
			if b.conn != nil {
				b.conn.Close()
				b.conn = nil
			}
			b.mu.Unlock()
			return
		case <-t.C:
			c.probe(b)
		}
	}
}

// probe runs one health probe and applies the up/down transition.
func (c *Coordinator) probe(b *backend) {
	rep, sentSeq, err := c.queryLoad(b)
	bad := ""
	switch {
	case err != nil:
		bad = err.Error()
	case rep.Draining:
		bad = "backend draining"
	case rep.Status == obs.HealthOverloaded:
		// A single overloaded verdict is already a sustained burn (the
		// SLO tracker's short window must be far over budget), but the
		// downAfter streak still applies so one probe racing a burst
		// spike cannot evict a backend.
		bad = "sustained SLO burn (overloaded)"
	}

	b.mu.Lock()
	b.probed = true
	if bad == "" {
		b.failures = 0
		b.report = rep
		b.cap = rep.Max
		if c.cfg.PerBackendCap > 0 && (b.cap == 0 || c.cfg.PerBackendCap < b.cap) {
			b.cap = c.cfg.PerBackendCap
		}
		// Reconcile the load estimate: what the backend counted, plus
		// every redirect issued after this probe left — those devices
		// may not have completed their hello when the backend built the
		// report, but their slots are spoken for.
		b.assigned = rep.Active + int(b.redirectSeq-sentSeq)
		wasDown := !b.up
		b.up = true
		b.mu.Unlock()
		if wasDown {
			b.gUp.Set(1)
			c.ring.Add(b.addr)
			c.noteRingChange()
			c.cfg.Journal.Event("backend_up", "", 0, "", b.addr)
			c.logf("coord: backend %s up (%d/%d sessions)", b.addr, rep.Active, rep.Max)
		}
		return
	}
	b.failures++
	evict := b.up && b.failures >= downAfter
	if evict {
		b.up = false
	}
	b.mu.Unlock()
	if evict {
		b.gUp.Set(0)
		c.ring.Remove(b.addr)
		c.noteRingChange()
		c.cRehomes.Inc()
		c.cfg.Journal.Event("rehome", "", 0, "",
			fmt.Sprintf("backend %s drained (%s): ring span re-homed to %d survivors",
				b.addr, bad, c.ring.Len()))
		c.logf("coord: backend %s drained (%s); span re-homed", b.addr, bad)
	}
}

// noteRingChange refreshes the ring gauges after a membership change.
func (c *Coordinator) noteRingChange() {
	c.gUpCount.Set(int64(c.ring.Len()))
	c.gBalance.Set(c.ring.Balance())
}

// queryLoad sends one FrameLoadQuery over the backend's persistent
// probe connection (re-dialing as needed) and reads the report, along
// with the redirectSeq snapshot taken as the query left. The probe I/O
// runs outside b.mu — only probeLoop touches the connection, and
// holding the lock across a slow RPC would stall every redirect to
// this backend for up to the probe timeout.
func (c *Coordinator) queryLoad(b *backend) (fleet.LoadReport, int64, error) {
	deadline := time.Now().Add(c.probeTimeout())
	b.mu.Lock()
	conn, br := b.conn, b.br
	b.mu.Unlock()
	if conn == nil {
		dialed, err := net.DialTimeout("tcp", b.addr, c.probeTimeout())
		if err != nil {
			return fleet.LoadReport{}, 0, err
		}
		conn, br = dialed, bufio.NewReaderSize(dialed, 1<<12)
		b.mu.Lock()
		b.conn, b.br = conn, br
		b.mu.Unlock()
	}
	b.mu.Lock()
	sentSeq := b.redirectSeq
	b.mu.Unlock()
	rep, err := roundTrip[fleet.LoadReport](conn, br, deadline,
		fleet.FrameLoadQuery, nil, fleet.FrameLoadReport)
	if err != nil {
		conn.Close()
		b.mu.Lock()
		b.conn, b.br = nil, nil
		b.mu.Unlock()
		return fleet.LoadReport{}, 0, err
	}
	return rep, sentSeq, nil
}

// probeTimeout bounds one control RPC to a backend: twice the probe
// period.
func (c *Coordinator) probeTimeout() time.Duration { return 2 * c.cfg.ProbeInterval }

// roundTrip writes one control frame and decodes the expected JSON
// answer under a deadline.
func roundTrip[T any](conn net.Conn, br *bufio.Reader, deadline time.Time,
	reqTyp byte, reqPayload []byte, wantTyp byte) (T, error) {
	var out T
	conn.SetDeadline(deadline)
	if err := fleet.WriteFrame(conn, reqTyp, reqPayload); err != nil {
		return out, err
	}
	typ, payload, err := fleet.ReadFrame(br, fleet.DefaultMaxFrameBytes)
	if err != nil {
		return out, err
	}
	if typ != wantTyp {
		return out, fmt.Errorf("coord: control frame 0x%02x, want 0x%02x", typ, wantTyp)
	}
	if err := json.Unmarshal(payload, &out); err != nil {
		return out, fmt.Errorf("coord: bad control payload: %w", err)
	}
	return out, nil
}

// ListenAndServe listens on addr and serves until Shutdown or Close.
func (c *Coordinator) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return c.Serve(ln)
}

// Addr returns the listener address (nil before Serve).
func (c *Coordinator) Addr() net.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ln == nil {
		return nil
	}
	return c.ln.Addr()
}

// Serve accepts device connections on ln until Shutdown or Close.
// Coordinator connections are ephemeral — one hello in, one redirect
// (or error) out — so there is nothing to drain.
func (c *Coordinator) Serve(ln net.Listener) error {
	c.mu.Lock()
	if c.closed || c.draining {
		c.mu.Unlock()
		ln.Close()
		return errors.New("coord: coordinator already shut down")
	}
	if c.ln != nil {
		c.mu.Unlock()
		ln.Close()
		return errors.New("coord: coordinator already serving")
	}
	c.ln = ln
	c.mu.Unlock()
	c.logf("coord: serving on %s, %d backends", ln.Addr(), len(c.backends))
	c.cfg.Journal.Event("coord_start", "", 0, "", ln.Addr().String())
	for {
		conn, err := ln.Accept()
		if err != nil {
			c.mu.Lock()
			stopping := c.draining || c.closed
			c.mu.Unlock()
			if stopping {
				return nil
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return err
		}
		c.wg.Add(1)
		go c.handle(conn)
	}
}

// handle answers one device connection: a hello gets a redirect to the
// owning backend, a load query gets the aggregate load (so coordinators
// can themselves be probed).
func (c *Coordinator) handle(conn net.Conn) {
	defer c.wg.Done()
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	br := bufio.NewReaderSize(conn, 1<<12)
	typ, payload, err := fleet.ReadFrame(br, fleet.DefaultMaxFrameBytes)
	if err != nil {
		return
	}
	switch typ {
	case fleet.FrameHello:
		c.answerHello(conn, payload)
	case fleet.FrameLoadQuery:
		active, max := c.ActiveSessions()
		c.writeFrame(conn, fleet.FrameLoadReport, mustJSON(fleet.LoadReport{
			Active:   active,
			Max:      max,
			Draining: c.Draining(),
			Status:   c.HealthStatus(),
		}))
	default:
		c.writeFrame(conn, fleet.FrameError, mustJSON(fleet.ErrorInfo{
			Error: fmt.Sprintf("coord: unexpected frame 0x%02x", typ)}))
	}
}

// answerHello resolves the device's owning backend and redirects.
func (c *Coordinator) answerHello(conn net.Conn, payload []byte) {
	c.cHellos.Inc()
	refuse := func(why string) {
		c.cRefused.Inc()
		c.writeFrame(conn, fleet.FrameError, mustJSON(fleet.ErrorInfo{Error: why}))
	}
	var hello fleet.Hello
	if err := json.Unmarshal(payload, &hello); err != nil {
		refuse(fmt.Sprintf("coord: bad hello: %v", err))
		return
	}
	// The backend's own rule: a name it would refuse must not be
	// hashed, redirected and counted toward its owner's load estimate.
	if err := hello.Validate(); err != nil {
		refuse("coord: " + err.Error())
		return
	}
	if hello.Proto < fleet.ProtoRedirect {
		// Version negotiation: a client that never announced redirect
		// support would misread a FrameRedirect as a protocol error, so
		// it gets a self-describing refusal instead. Old clients against
		// plain backends remain untouched — only the coordinator needs
		// the new feature level.
		refuse("coord: client does not support redirects (proto >= 1); dial a backend directly")
		return
	}
	b, ok := c.pick(hello.Device)
	if !ok {
		refuse("coord: no backend available")
		return
	}
	b.cRedirects.Inc()
	c.cRedirects.Inc()
	c.writeFrame(conn, fleet.FrameRedirect, mustJSON(fleet.Redirect{Addr: b.addr, Backend: b.addr}))
}

// pick maps a device to a backend: the consistent-hash owner of the
// device's ring span unless it is down or at its estimated admission
// cap, in which case the span walks clockwise to the next backend with
// headroom (bounded load). If every live backend looks full the least
// loaded one takes the redirect anyway — the estimate may be stale and
// the backend adjudicates admission authoritatively.
func (c *Coordinator) pick(device string) (*backend, bool) {
	addr, ok := c.ring.Owner(device, func(member string) bool {
		b := c.byAddr[member]
		return b == nil || !b.healthy() || b.atCap()
	})
	if ok {
		b := c.byAddr[addr]
		b.noteAssigned()
		return b, true
	}
	var best *backend
	for _, b := range c.backends {
		if !b.healthy() {
			continue
		}
		if best == nil || b.load() < best.load() {
			best = b
		}
	}
	if best == nil {
		return nil, false
	}
	best.noteAssigned()
	return best, true
}

// writeFrame writes one outbound frame under the write deadline.
func (c *Coordinator) writeFrame(conn net.Conn, typ byte, payload []byte) {
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	fleet.WriteFrame(conn, typ, payload)
}

// Shutdown stops the coordinator: close the listener, stop probing and
// wait for in-flight handshakes (or ctx). Safe to call multiple times.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	already := c.draining || c.closed
	c.draining = true
	ln := c.ln
	c.mu.Unlock()
	if ln != nil && !already {
		ln.Close()
	}
	c.stopOnce.Do(func() { close(c.stop) })
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		c.finishJournal("drained")
		return nil
	case <-ctx.Done():
		c.Close()
		<-done
		return errors.New("coord: shutdown interrupted")
	}
}

// Close force-stops the coordinator.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	wasClosed := c.closed
	c.closed = true
	ln := c.ln
	c.mu.Unlock()
	var err error
	if ln != nil && !wasClosed {
		err = ln.Close()
		if errors.Is(err, net.ErrClosed) {
			err = nil
		}
	}
	c.stopOnce.Do(func() { close(c.stop) })
	go func() {
		c.wg.Wait()
		c.finishJournal("closed")
	}()
	return err
}

// finishJournal journals the stop and unblocks any WaitReady callers.
func (c *Coordinator) finishJournal(detail string) {
	c.readyOnce.Do(func() { close(c.ready) })
	c.cfg.Journal.Event("coord_stop", "", 0, "", detail)
	c.cfg.Journal.Sync()
}

// --- obs integration: the coordinator is the fleet's front door, so it
// implements the same obs.FleetNode interface the single-node server
// does, aggregating across backends over the FleetQuery control RPC.

// Draining reports whether shutdown has been requested.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining || c.closed
}

// ActiveSessions sums the live session counts and admission caps of the
// backends currently in the ring (obs.FleetNode).
func (c *Coordinator) ActiveSessions() (active, max int) {
	for _, b := range c.backends {
		b.mu.Lock()
		if b.up {
			active += b.assigned
			max += b.report.Max
		}
		b.mu.Unlock()
	}
	return active, max
}

// HealthStatus is the coordinator's own verdict (obs.FleetNode):
// draining beats everything, a fleet with no live backend is overloaded
// (healthz must fail closed so a load balancer stops sending devices
// here), a partial fleet is degraded, a full fleet is ready.
func (c *Coordinator) HealthStatus() string {
	if c.Draining() {
		return obs.HealthDraining
	}
	up := c.ring.Len()
	switch {
	case up == 0:
		return obs.HealthOverloaded
	case up < len(c.backends):
		return obs.HealthDegraded
	default:
		return obs.HealthReady
	}
}

// FleetSessionsPage aggregates one listing page across the backends in
// config order (obs.FleetNode): backend A's sessions come first,
// then B's, and so on, so paging through the coordinator walks the
// whole fleet exactly once. Backends that are down or unreachable
// contribute nothing; totals count only what was actually reachable.
func (c *Coordinator) FleetSessionsPage(offset, limit int) (any, int, int) {
	if offset < 0 {
		offset = 0
	}
	if limit < 0 {
		limit = 0
	}
	sessions := []fleet.SessionInfo{}
	var total, active int
	rem, need := offset, limit
	for _, b := range c.backends {
		if !b.healthy() {
			continue
		}
		q := fleet.FleetQuery{Offset: rem, Limit: need}
		if need == 0 {
			// The page is already full; ask for totals only.
			q = fleet.FleetQuery{Offset: 1 << 30, Limit: 1}
		}
		page, err := c.queryFleet(b.addr, q)
		if err != nil {
			c.logf("coord: fleet listing from %s failed: %v", b.addr, err)
			continue
		}
		sessions = append(sessions, page.Sessions...)
		total += page.Total
		active += page.Active
		need -= len(page.Sessions)
		// Whatever offset this backend's listing did not absorb carries
		// into the next backend's query.
		rem -= page.Total
		if rem < 0 {
			rem = 0
		}
	}
	return sessions, total, active
}

// queryFleet asks one backend for a listing page over a fresh
// connection (listings are a low-rate obs endpoint; the persistent
// probe connection stays dedicated to health).
func (c *Coordinator) queryFleet(addr string, q fleet.FleetQuery) (fleet.FleetPage, error) {
	conn, err := net.DialTimeout("tcp", addr, c.probeTimeout())
	if err != nil {
		return fleet.FleetPage{}, err
	}
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<16)
	return roundTrip[fleet.FleetPage](conn, br, time.Now().Add(c.probeTimeout()),
		fleet.FrameFleetQuery, mustJSON(q), fleet.FrameFleetPage)
}

// mustJSON marshals a protocol payload; the payload types marshal
// without error by construction.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("coord: encoding %T: %v", v, err))
	}
	return b
}
