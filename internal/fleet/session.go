package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"eddie/internal/metrics"
	"eddie/internal/obs"
	"eddie/internal/stream"
)

// sessionReadBufBytes sizes the per-session buffered reader: big enough
// to take a frame header plus a typical samples payload in one syscall.
const sessionReadBufBytes = 1 << 16

// session is one connected device. A thin reader goroutine decodes
// frames into a bounded inbox (decode + enqueue only); the detector work
// happens on the session's shard, whose processor drains the whole
// inbox in one batched scheduling turn. The inbox bound is the
// backpressure mechanism: when pending samples exceed the cap the
// reader stops draining the socket, and TCP flow control pushes back on
// the device.
type session struct {
	s    *Server
	id   int64
	conn net.Conn
	br   *bufio.Reader

	// Set during the handshake, read-only afterwards (device, workload
	// and sh are written under mu because listings and close() may race
	// the handshake).
	device   string
	workload string
	det      *stream.Detector
	flight   *obs.FlightRecorder
	started  time.Time
	remote   string

	// Per-device counters in the server registry.
	dSamples, dWindows, dReports, dSanitized *metrics.Counter

	// control marks a coordinator control connection (load probes,
	// fleet-listing queries): it holds a session slot but opens no
	// detector and stays out of the listing/journal/counter plane.
	// Atomic because listings race the handshake that sets it.
	control atomic.Bool
	// slot marks a session holding one of the MaxSessions device slots
	// (claimed at hello, released in finish). Atomic for the same
	// reason as control: finish may run on a shard goroutine.
	slot atomic.Bool

	mu      sync.Mutex
	cond    *sync.Cond // wakes a reader stalled on the pending cap
	sh      *shard
	inbox   fifo[[]float64]
	pool    samplePool
	pending int // samples sitting in the inbox
	// firstPending is when the oldest frame of the current inbox batch
	// was enqueued — the start of its frame-to-verdict latency, measured
	// when the turn that drains it completes.
	firstPending time.Time
	queued       bool   // session sits in its shard's run queue
	readerDone   bool   // reader exited; processor drains then finalizes
	sawBye       bool   // reader saw a clean FrameBye
	stopRead     bool   // reader should stop taking frames
	closed       bool   // hard stop: finalize without draining
	finalized    bool   // terminal state reached exactly once
	finalMsg     string // error sent to the client at session end ("" = clean)

	// Processor-only state (one shard turn at a time, no lock needed).
	batch         [][]float64
	readBuf       []byte
	prevWindows   int
	prevSanitized int64
	// nextAdaptJournal is the adaptation-update count at which the next
	// "adapt" journal event is due (0 when the stream template leaves
	// the monitor's drift-adaptive layer off).
	nextAdaptJournal int64

	// Progress counters, atomically readable by session listings while
	// the shard processor runs.
	aSamples   atomic.Int64
	aSanitized atomic.Int64
	aWindows   atomic.Int64
	aReports   atomic.Int64
	lastWindow atomic.Int64
	lastTime   atomic.Uint64 // float64 bits
	lastActive atomic.Int64  // unix nanos of the newest enqueued frame
	errMsg     atomic.Pointer[string]
}

func newSession(s *Server, id int64, conn net.Conn) *session {
	ss := &session{s: s, id: id, conn: conn, started: time.Now()}
	ss.cond = sync.NewCond(&ss.mu)
	ss.lastWindow.Store(-1)
	ss.pool.maxRetain = 2 * s.cfg.MaxPendingSamples
	if conn != nil {
		ss.remote = conn.RemoteAddr().String()
		ss.br = bufio.NewReaderSize(conn, sessionReadBufBytes)
	}
	return ss
}

// fail records the session's terminal error (first one wins).
func (ss *session) fail(msg string) {
	ss.errMsg.CompareAndSwap(nil, &msg)
}

// info snapshots the session for listings.
func (ss *session) info() SessionInfo {
	ss.mu.Lock()
	active := !ss.closed && !ss.finalized
	queueDepth := ss.pending
	device, workload := ss.device, ss.workload
	ss.mu.Unlock()
	info := SessionInfo{
		QueueDepth: queueDepth,
		Session:    ss.id,
		Device:     device,
		Workload:   workload,
		Remote:     ss.remote,
		StartedAt:  ss.started.UTC().Format(time.RFC3339Nano),
		Active:     active,
		Samples:    ss.aSamples.Load(),
		Sanitized:  ss.aSanitized.Load(),
		Windows:    int(ss.aWindows.Load()),
		Reports:    int(ss.aReports.Load()),
		LastWindow: int(ss.lastWindow.Load()),
	}
	if bits := ss.lastTime.Load(); bits != 0 {
		info.LastTime = math.Float64frombits(bits)
	}
	if ns := ss.lastActive.Load(); ns != 0 {
		info.LastActivity = time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
	}
	if e := ss.errMsg.Load(); e != nil {
		info.Error = *e
	}
	return info
}

// shardLabel names the session's shard for journal provenance ("" when
// unassigned).
func (ss *session) shardLabel() string {
	ss.mu.Lock()
	sh := ss.sh
	ss.mu.Unlock()
	if sh == nil {
		return ""
	}
	return sh.label
}

// run is the reader lifecycle: handshake, then decode + enqueue until
// the stream ends. The session's final frame and teardown happen on the
// shard processor, which drains whatever the reader queued first.
func (ss *session) run() {
	if !ss.handshake() {
		ss.finalize(false)
		return
	}
	ss.s.cOpened.Inc()
	ss.s.logf("fleet: session %d: device %s monitoring %s from %s",
		ss.id, ss.device, ss.workload, ss.remote)
	ss.s.cfg.Journal.Event("connect", ss.device, ss.id, ss.shardLabel(), ss.remote)
	ss.read()

	ss.mu.Lock()
	ss.readerDone = true
	enq := !ss.queued
	if enq {
		ss.queued = true
	}
	sh := ss.sh
	ss.mu.Unlock()
	if enq {
		sh.enqueue(ss)
	}
}

// handshake reads and validates the hello, builds the detector, and
// assigns the session to its shard. Failures answer with a FrameError.
func (ss *session) handshake() bool {
	ss.conn.SetReadDeadline(time.Now().Add(ss.s.cfg.IdleTimeout))
	typ, payload, err := readFrame(ss.br, DefaultMaxFrameBytes)
	if err != nil {
		ss.abort(fmt.Sprintf("reading hello: %v", err))
		return false
	}
	if typ == FrameLoadQuery || typ == FrameFleetQuery {
		ss.control.Store(true)
		ss.serveControl(typ, payload)
		return false
	}
	if typ != FrameHello {
		ss.abort(fmt.Sprintf("expected hello frame, got 0x%02x", typ))
		return false
	}
	var hello Hello
	if err := json.Unmarshal(payload, &hello); err != nil {
		ss.abort(fmt.Sprintf("bad hello: %v", err))
		return false
	}
	if err := hello.Validate(); err != nil {
		ss.abort(err.Error())
		return false
	}
	// The device cap is enforced here, not at accept: the accept path
	// over-admits by a small headroom so control probes get through at
	// a full backend, and only sessions presenting a real hello claim a
	// MaxSessions slot.
	if !ss.s.claimDeviceSlot() {
		ss.s.cRefused.Inc()
		ss.abort(fmt.Sprintf("at capacity (%d sessions)", ss.s.cfg.MaxSessions))
		return false
	}
	ss.slot.Store(true)
	model, err := ss.s.cfg.Models.Load(hello.Workload)
	if err != nil {
		ss.abort(fmt.Sprintf("loading model: %v", err))
		return false
	}
	// The source hands every session of a workload the same model. From
	// here on the session counts toward its workload's live sessions
	// (finish uncounts it by the workload it lists).
	ss.mu.Lock()
	ss.device = hello.Device
	ss.workload = hello.Workload
	ss.mu.Unlock()
	ss.s.mu.Lock()
	ss.s.countWorkloadLocked(hello.Workload, 1)
	ss.s.mu.Unlock()

	cfg := ss.s.cfg.Stream
	// Per-session hooks from the template would be shared mutable state
	// across devices; drop them. Each session gets its own flight
	// recorder, and the shared registry aggregates fleet-wide detector
	// metrics (its instruments are concurrency-safe).
	cfg.Tap = nil
	cfg.GroundTruth = nil
	cfg.Impair = nil
	cfg.Metrics = metrics.NewDetectorWith(ss.s.reg)
	cfg.MaxHistoryWindows = maxHistoryWindows
	if hello.DisableDCBlock {
		cfg.DisableDCBlock = true
	}
	ss.flight = obs.NewFlightRecorder(0)
	cfg.Flight = ss.flight
	det, err := stream.NewDetector(model, cfg)
	if err != nil {
		ss.abort(fmt.Sprintf("creating detector: %v", err))
		return false
	}
	ss.det = det
	// Every alarm this session's recorder takes is published the moment
	// it fires: journaled durably and fanned out to SSE subscribers.
	ss.flight.SetOnAlarm(ss.publishAlarm)
	ss.dSamples = ss.s.reg.Counter("fleet_device_samples/" + ss.device)
	ss.dWindows = ss.s.reg.Counter("fleet_device_windows/" + ss.device)
	ss.dReports = ss.s.reg.Counter("fleet_device_reports/" + ss.device)
	ss.dSanitized = ss.s.reg.Counter("fleet_device_sanitized/" + ss.device)
	if det.Monitor().AdaptEnabled() {
		ss.nextAdaptJournal = 1
	}

	sh := ss.s.shardFor(ss.device)
	ss.mu.Lock()
	ss.sh = sh
	ss.mu.Unlock()

	welcome := Welcome{
		Session:    ss.id,
		Device:     ss.device,
		Workload:   ss.workload,
		WindowSize: cfg.STFT.WindowSize,
		HopSize:    cfg.STFT.HopSize,
		SampleRate: cfg.STFT.SampleRate,
		Regions:    len(model.Regions),
	}
	if err := ss.writeFrame(FrameWelcome, mustJSON(welcome)); err != nil {
		ss.fail(fmt.Sprintf("writing welcome: %v", err))
		return false
	}
	return true
}

// serveControl answers coordinator control queries on this connection
// until it closes, goes idle, or the server drains: FrameLoadQuery ->
// FrameLoadReport, FrameFleetQuery -> FrameFleetPage. A control
// connection occupies a session slot (the admission bound covers it)
// but opens no detector and stays out of the listing and journal.
func (ss *session) serveControl(typ byte, payload []byte) {
	for {
		switch typ {
		case FrameLoadQuery:
			if err := ss.writeFrame(FrameLoadReport, mustJSON(ss.s.loadReport())); err != nil {
				return
			}
		case FrameFleetQuery:
			var q FleetQuery
			if err := json.Unmarshal(payload, &q); err != nil {
				ss.writeFrame(FrameError, mustJSON(ErrorInfo{Error: "fleet: bad fleet query: " + err.Error()}))
				return
			}
			page, total, active := ss.s.SessionsPage(q.Offset, q.Limit)
			if page == nil {
				page = []SessionInfo{} // "sessions":[] rather than null
			}
			if err := ss.writeFrame(FrameFleetPage, mustJSON(FleetPage{Sessions: page, Total: total, Active: active})); err != nil {
				return
			}
		default:
			ss.writeFrame(FrameError, mustJSON(ErrorInfo{
				Error: fmt.Sprintf("fleet: unexpected control frame 0x%02x", typ)}))
			return
		}
		if !ss.armReadDeadline() {
			return
		}
		var err error
		typ, payload, ss.readBuf, err = readFrameInto(ss.br, DefaultMaxFrameBytes, ss.readBuf)
		if err != nil {
			return
		}
	}
}

// abort answers a handshake failure with a FrameError.
func (ss *session) abort(msg string) {
	ss.fail(msg)
	ss.writeFrame(FrameError, mustJSON(ErrorInfo{Error: "fleet: " + msg}))
}

// armReadDeadline sets the idle read deadline for the next frame, or
// reports false when the session stopped. Sharing ss.mu with drain()
// means a drain can never be overwritten by a stale long deadline.
func (ss *session) armReadDeadline() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.stopRead || ss.closed {
		return false
	}
	ss.conn.SetReadDeadline(time.Now().Add(ss.s.cfg.IdleTimeout))
	return true
}

// read is the session's socket reader: it decodes frames into pooled
// buffers and enqueues them under the backpressure cap until the device
// says bye, errs, goes idle, or the server drains.
func (ss *session) read() {
	for {
		if !ss.armReadDeadline() {
			ss.finishRead("", false)
			return
		}
		typ, payload, scratch, err := readFrameInto(ss.br, DefaultMaxFrameBytes, ss.readBuf)
		ss.readBuf = scratch
		if err != nil {
			if ss.drainRequested() {
				ss.finishRead("server draining", false)
				return
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				ss.finishRead(fmt.Sprintf("idle for %v", ss.s.cfg.IdleTimeout), false)
				return
			}
			ss.finishRead(fmt.Sprintf("read: %v", err), false)
			return
		}
		switch typ {
		case FrameSamples:
			samples, err := DecodeSamples(payload, ss.getBuf(len(payload)/8))
			if err != nil {
				ss.finishRead(err.Error(), false)
				return
			}
			if !ss.enqueue(samples) {
				ss.finishRead("", false) // closed or draining underneath us
				return
			}
		case FrameBye:
			ss.finishRead("", true)
			return
		default:
			ss.finishRead(fmt.Sprintf("unexpected frame 0x%02x", typ), false)
			return
		}
	}
}

// getBuf takes a decode buffer from the session pool.
func (ss *session) getBuf(n int) []float64 {
	ss.mu.Lock()
	b := ss.pool.get(n)
	ss.mu.Unlock()
	return b
}

// finishRead ends the reader: records a clean bye or the terminal
// error. The caller (run) then hands the session to its shard.
func (ss *session) finishRead(errMsg string, bye bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if bye {
		ss.sawBye = true
	}
	if errMsg != "" && ss.finalMsg == "" {
		ss.finalMsg = errMsg
	}
	ss.stopRead = true
}

// drainRequested reports whether the server asked this session to
// drain.
func (ss *session) drainRequested() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.stopRead
}

// enqueue adds a decoded chunk to the inbox and marks the session
// ready on its shard, blocking while the pending-sample cap is exceeded
// (the backpressure stall). Returns false when the session stopped
// while waiting.
func (ss *session) enqueue(samples []float64) bool {
	now := time.Now()
	ss.lastActive.Store(now.UnixNano())
	ss.mu.Lock()
	stalled := false
	for ss.pending > 0 && ss.pending+len(samples) > ss.s.cfg.MaxPendingSamples &&
		!ss.closed && !ss.stopRead {
		if !stalled {
			stalled = true
			ss.s.cBackpress.Inc()
			if j := ss.s.cfg.Journal; j != nil {
				label := ""
				if ss.sh != nil {
					label = ss.sh.label
				}
				j.Event("backpressure", ss.device, ss.id, label, "pending cap reached")
			}
		}
		ss.cond.Wait()
	}
	if ss.closed || ss.stopRead {
		ss.mu.Unlock()
		return false
	}
	if ss.pending == 0 {
		ss.firstPending = now
	}
	ss.inbox.push(samples)
	ss.pending += len(samples)
	enq := !ss.queued
	if enq {
		ss.queued = true
	}
	sh := ss.sh
	ss.mu.Unlock()
	if enq {
		sh.enqueue(ss)
	}
	return true
}

// processTurn is one scheduling turn on the session's shard: drain the
// whole inbox, feed it to the detector as one batch, stream the
// resulting reports, then either requeue (more frames arrived while
// feeding), finalize (stream ended), or go idle. Returns whether the
// shard should requeue the session.
func (ss *session) processTurn() (requeue bool) {
	ss.mu.Lock()
	if ss.finalized {
		ss.mu.Unlock()
		return false
	}
	if ss.closed {
		ss.mu.Unlock()
		ss.finalize(false)
		return false
	}
	ss.batch = ss.inbox.drainTo(ss.batch[:0])
	ss.pending = 0
	t0 := ss.firstPending
	ss.firstPending = time.Time{}
	sh := ss.sh
	ss.cond.Broadcast() // release a reader stalled on the pending cap
	ss.mu.Unlock()

	if len(ss.batch) > 0 {
		if !ss.feedBatch() {
			return false // report write failed; session finalized
		}
		// Frame-to-verdict: oldest frame of the batch enqueued → its
		// verdict rendered (the detector has decided on every window the
		// batch completed). Atomic histogram + SLO record, no allocation
		// — this runs on every steady-state turn.
		if !t0.IsZero() {
			lat := time.Since(t0)
			if sh != nil {
				sh.hVerdict.Record(int64(lat))
			}
			ss.s.cfg.SLO.Record(lat)
		}
	}

	ss.mu.Lock()
	switch {
	case ss.closed:
		ss.mu.Unlock()
		ss.finalize(false)
		return false
	case ss.inbox.len() > 0:
		ss.mu.Unlock()
		return true // keep queued=true; shard requeues at the tail
	case ss.readerDone:
		ss.mu.Unlock()
		ss.finalize(true)
		return false
	default:
		ss.queued = false
		ss.mu.Unlock()
		return false
	}
}

// feedBatch runs the drained batch through the detector, updates the
// progress counters, recycles the sample buffers, and streams the
// reports. Returns false when a report write failed (the session is
// finalized).
func (ss *session) feedBatch() bool {
	var total int64
	for _, c := range ss.batch {
		total += int64(len(c))
	}
	reports := ss.det.FeedChunks(ss.batch)

	// Device counters may be shared by several sessions of the same
	// device name, so deltas come from session-local progress, never
	// from reading the shared counter back.
	ss.aSamples.Add(total)
	ss.aSanitized.Store(ss.det.Sanitized())
	ss.aWindows.Store(int64(ss.det.Windows()))
	ss.dSamples.Add(total)
	ss.dWindows.Add(int64(ss.det.Windows() - ss.prevWindows))
	ss.dSanitized.Add(ss.det.Sanitized() - ss.prevSanitized)
	ss.prevWindows, ss.prevSanitized = ss.det.Windows(), ss.det.Sanitized()
	if ss.nextAdaptJournal > 0 {
		ss.journalAdapt()
	}

	// The detector copies samples into its own ring, so the batch
	// buffers recycle before the (comparatively slow) report writes.
	ss.mu.Lock()
	for i := range ss.batch {
		ss.pool.put(ss.batch[i])
		ss.batch[i] = nil
	}
	ss.mu.Unlock()
	ss.batch = ss.batch[:0]

	for i := range reports {
		r := &reports[i]
		ss.aReports.Add(1)
		ss.dReports.Inc()
		ss.s.cReports.Inc()
		ss.lastWindow.Store(int64(r.Window))
		ss.lastTime.Store(math.Float64bits(r.TimeSec))
		ev := Report{
			Device:  ss.device,
			Session: ss.id,
			Window:  r.Window,
			TimeSec: r.TimeSec,
			Region:  int(r.Region),
		}
		if err := ss.writeFrame(FrameReport, mustJSON(ev)); err != nil {
			ss.fail(fmt.Sprintf("writing report: %v", err))
			ss.finalize(false)
			return false
		}
	}
	return true
}

// adaptJournalEvery is how many admitted reference updates pass between
// journaled adaptation events: the first update a session ever admits is
// journaled immediately (the reference started moving — that is the
// forensically interesting moment), then one event per this many updates
// keeps a durable trail of the accumulated drift without writing the
// journal on every scheduling turn.
const adaptJournalEvery = 256

// journalAdapt runs on the session's shard turn after a batch was fed:
// once the detector's admitted adaptation updates reach the next due
// count, it journals the adaptation trail. The adaptation metrics
// (adapt_updates, adapt_drift, region_adapt_drift/R*) are the
// detector's own: its monitor publishes them through the Stats hook.
func (ss *session) journalAdapt() {
	mon := ss.det.Monitor()
	if u := mon.AdaptUpdates(); u >= ss.nextAdaptJournal {
		ss.nextAdaptJournal = u + adaptJournalEvery
		ss.publishAlarmEvent(&obs.JournalEvent{
			Type:   "adapt",
			Detail: fmt.Sprintf("updates=%d drift=%.3f", u, mon.AdaptDrift()),
		})
	}
}

// publishAlarm is the flight recorder's SetOnAlarm hook: the dump is
// journaled durably and fanned out to SSE subscribers as one
// JSON-encoded JournalEvent. It runs on the session's shard processor,
// right after the monitor fired the report — the alarm is on disk
// before the report frame reaches the device.
func (ss *session) publishAlarm(d *obs.AlarmDump) {
	ss.publishAlarmEvent(&obs.JournalEvent{Type: "alarm", Alarm: d})
}

// publishAlarmEvent stamps the session's provenance onto ev, appends it
// to the journal (which assigns the sequence number) and publishes the
// journal's encoded line to the live alarm stream, so an alarm is
// encoded once. Without a journal the event is encoded for the stream.
func (ss *session) publishAlarmEvent(ev *obs.JournalEvent) {
	ev.Device = ss.device
	ev.Session = ss.id
	ev.Shard = ss.shardLabel()
	line := ss.s.cfg.Journal.AppendEvent(ev) // stamps Seq and TimeUnixNano
	if ss.s.cfg.Alarms == nil {
		return
	}
	if line == nil { // no journal attached; stamp and encode for the stream
		if ev.TimeUnixNano == 0 {
			ev.TimeUnixNano = time.Now().UnixNano()
		}
		var err error
		if line, err = json.Marshal(ev); err != nil {
			return
		}
	}
	ss.s.cfg.Alarms.Publish(line)
}

// finalize reaches the session's terminal state exactly once: send the
// final frame (summary after a clean bye, error otherwise) unless the
// session was force-closed, tear down the connection, and unregister
// from the server.
func (ss *session) finalize(sendFinal bool) {
	ss.mu.Lock()
	if ss.finalized {
		ss.mu.Unlock()
		return
	}
	ss.finalized = true
	wasClosed := ss.closed
	sawBye := ss.sawBye
	finalMsg := ss.finalMsg
	ss.closed = true
	ss.stopRead = true
	ss.cond.Broadcast()
	ss.mu.Unlock()

	if sendFinal && !wasClosed {
		switch {
		case sawBye:
			sum := Summary{
				Session:   ss.id,
				Samples:   ss.aSamples.Load(),
				Sanitized: ss.det.Sanitized(),
				Windows:   ss.det.Windows(),
				Reports:   int(ss.aReports.Load()),
			}
			if err := ss.writeFrame(FrameSummary, mustJSON(sum)); err != nil {
				ss.fail(fmt.Sprintf("writing summary: %v", err))
			}
		default:
			if finalMsg == "" {
				finalMsg = "session closed"
			}
			ss.fail(finalMsg)
			ss.writeFrame(FrameError, mustJSON(ErrorInfo{Error: "fleet: " + finalMsg}))
		}
	}
	if ss.conn != nil {
		ss.conn.Close()
	}
	ss.s.finish(ss)
}

// writeFrame writes one outbound frame under the write deadline.
// Detached sessions (tests and benchmarks drive the processor without a
// socket) drop outbound frames.
func (ss *session) writeFrame(typ byte, payload []byte) error {
	if ss.conn == nil {
		return nil
	}
	ss.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	return writeFrame(ss.conn, typ, payload)
}

// drain asks the session to stop reading new frames; the shard
// processor finishes the queued work and closes. Called by
// Server.Shutdown.
func (ss *session) drain() {
	ss.mu.Lock()
	if ss.finalMsg == "" {
		ss.finalMsg = "server draining"
	}
	ss.stopRead = true
	ss.cond.Broadcast()
	ss.mu.Unlock()
	ss.s.cfg.Journal.Event("drain", ss.device, ss.id, ss.shardLabel(), "")
	// Wake a reader blocked in a frame read.
	ss.conn.SetReadDeadline(time.Now())
}

// close force-stops the session: the processor finalizes without
// draining and the connection is torn down. Called by Server.Close.
func (ss *session) close() {
	ss.mu.Lock()
	if ss.finalized {
		ss.mu.Unlock()
		return
	}
	ss.closed = true
	ss.stopRead = true
	enq := ss.sh != nil && !ss.queued
	if enq {
		ss.queued = true
	}
	sh := ss.sh
	ss.cond.Broadcast()
	ss.mu.Unlock()
	ss.conn.Close()
	if enq {
		sh.enqueue(ss) // prompt finalize on the shard
	}
}

// mustJSON marshals a protocol payload; the payload types marshal
// without error by construction.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("fleet: encoding %T: %v", v, err))
	}
	return b
}
