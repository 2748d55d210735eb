package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eddie/internal/coord"
	"eddie/internal/core"
	"eddie/internal/dsp"
	"eddie/internal/fleet"
	"eddie/internal/stream"
	"eddie/internal/synthbench"
)

// The fleet-load benchmark measures session density: how many
// concurrent detector sessions one node sustains at bounded
// frame-to-verdict latency. A swarm of protocol-level clients streams
// synthetic captures over localhost TCP — a paced clean phase (the
// mostly-idle steady state a dense fleet lives in) followed by an
// anomalous burst — and each session times the gap from writing its
// first anomalous frame to receiving the first report back over the
// wire. The ladder climbs until a rung blows the latency bound; then
// the coordinator rungs measure 1 vs 2 capped backends.
const (
	fleetChunk          = 2048                   // samples per frame (16 KiB payloads)
	fleetCleanFrames    = 8                      // paced steady-state prefix
	fleetBurstFrames    = 6                      // ~2 chunks trigger; 6 gives margin
	fleetPace           = 150 * time.Millisecond // clean-phase inter-frame gap
	fleetLatencyBoundMs = 500.0                  // the p99 frame-to-verdict budget
	// fleetSustainP99Ms is the sustain criterion: the budget with 10%
	// headroom. A rung whose p99 rides the budget's edge flips between
	// sustained and not across runs, which would make the density
	// headline — and the regression gate keyed to it — flaky.
	fleetSustainP99Ms = 0.9 * fleetLatencyBoundMs
	fleetRungTimeout  = 3 * time.Minute
	// fleetCoordPerNodeCap emulates fixed per-node capacity for the
	// coordinator scaling rungs. One node's true sustainable density is a
	// property of whatever box runs the bench, so the 1-vs-2-backend
	// comparison instead pins a hard per-backend admission cap at the
	// coordinator and asks whether two capped backends sustain a load one
	// provably cannot. 48 sits well inside the single-node density this
	// harness measures, so the capped rungs are capacity-shaped rather
	// than latency-shaped.
	fleetCoordPerNodeCap = 48
	// fleetCoordSpeedupFloor is the acceptance bar: 2 backends must
	// sustain at least 1.8x the sessions 1 backend does under the same
	// per-backend cap, inside the same latency budget.
	fleetCoordSpeedupFloor = 1.8
)

type fleetRungResult struct {
	Mode                string  `json:"mode"`
	Backends            int     `json:"backends,omitempty"`
	Sessions            int     `json:"sessions"`
	Sustained           bool    `json:"sustained"`
	P50Ms               float64 `json:"frame_to_verdict_p50_ms"`
	P99Ms               float64 `json:"frame_to_verdict_p99_ms"`
	AlarmsPerSec        float64 `json:"alarms_per_sec"`
	WireBytesPerSession int64   `json:"wire_bytes_per_session"`
	MemBytesPerSession  int64   `json:"mem_bytes_per_session"`
	Failures            int     `json:"failures"`
	DurationSec         float64 `json:"duration_sec"`
}

// fleetNodeSummary is the single-node headline.
type fleetNodeSummary struct {
	// AdmissionCap is the server's default (memory-derived) MaxSessions
	// on this node. A node cannot host more sessions than it admits, so
	// SessionsPerNode = min(cap, measured).
	AdmissionCap      int     `json:"admission_cap"`
	MeasuredSustained int     `json:"measured_sustained_sessions"`
	SessionsPerNode   int     `json:"sessions_per_node"`
	P99Ms             float64 `json:"frame_to_verdict_p99_ms"`
}

// fleetCoordSummary is the headline for one coordinator configuration:
// how many total sessions N capped backends sustained.
type fleetCoordSummary struct {
	Backends          int     `json:"backends"`
	PerBackendCap     int     `json:"per_backend_cap"`
	MeasuredSustained int     `json:"measured_sustained_sessions"`
	P99Ms             float64 `json:"frame_to_verdict_p99_ms"`
}

type fleetBenchFile struct {
	benchHeader
	ChunkSamples   int               `json:"chunk_samples"`
	CleanFrames    int               `json:"clean_frames"`
	BurstFrames    int               `json:"burst_frames"`
	PaceMs         float64           `json:"pace_ms"`
	LatencyBoundMs float64           `json:"latency_bound_ms"`
	SustainP99Ms   float64           `json:"sustain_p99_ms"`
	Rungs          []fleetRungResult `json:"rungs"`
	Sharded        fleetNodeSummary  `json:"sharded"`
	CoordRungs     []fleetRungResult `json:"coord_rungs,omitempty"`
	Coord1         fleetCoordSummary `json:"coord_1_backend"`
	Coord2         fleetCoordSummary `json:"coord_2_backends"`
	CoordSpeedup   float64           `json:"coord_sessions_speedup"`
}

// fleetGates are the fleet bench's regression gates against the
// checked-in BENCH_fleet.json.
var fleetGates = []gatedMetric[fleetBenchFile]{
	{
		name: "sharded sessions/node", better: higherIsBetter, limit: regressionLimit,
		value: func(f *fleetBenchFile) float64 { return float64(f.Sharded.MeasuredSustained) },
	},
	{
		name: "sharded p99 frame-to-verdict ms", better: lowerIsBetter, limit: regressionLimit,
		value: func(f *fleetBenchFile) float64 { return f.Sharded.P99Ms },
		// p99 is only comparable at comparable density: sustaining MORE
		// sessions at a higher (still in-bound) p99 is an improvement,
		// so the latency gate applies only when the sustained rung
		// didn't grow.
		applies: func(old, cur *fleetBenchFile) bool {
			return cur.Sharded.MeasuredSustained <= old.Sharded.MeasuredSustained
		},
	},
	{
		name: "coordinated sessions (2 backends)", better: higherIsBetter, limit: regressionLimit,
		value: func(f *fleetBenchFile) float64 { return float64(f.Coord2.MeasuredSustained) },
	},
}

// fleetBenchEnv is the trained model plus the precomputed wire frames
// every session replays.
type fleetBenchEnv struct {
	model       *core.Model
	stft        dsp.STFTConfig
	peaks       dsp.PeakConfig
	cleanFrames [][]byte
	burstFrames [][]byte
	wireBytes   int64
}

func newFleetBenchEnv() (*fleetBenchEnv, error) {
	stft := synthbench.FleetSTFT()
	peaks := synthbench.FleetPeaks()
	model, _, err := synthbench.TrainSignalModel(4, 200_000, stft, peaks)
	if err != nil {
		return nil, err
	}
	env := &fleetBenchEnv{model: model, stft: stft, peaks: peaks}

	clean := synthbench.Signal(fleetCleanFrames*fleetChunk, stft, 101, 1)
	anom := synthbench.Signal(fleetBurstFrames*fleetChunk, stft, 102, 1.05)
	for i := 0; i < fleetCleanFrames; i++ {
		env.cleanFrames = append(env.cleanFrames, fleet.EncodeSamples(clean[i*fleetChunk:(i+1)*fleetChunk]))
	}
	for i := 0; i < fleetBurstFrames; i++ {
		env.burstFrames = append(env.burstFrames, fleet.EncodeSamples(anom[i*fleetChunk:(i+1)*fleetChunk]))
	}
	// Wire cost per session, modulo the per-session device name in the
	// hello (~30 bytes).
	hello, err := json.Marshal(fleet.Hello{Workload: "synthfleet", DisableDCBlock: true})
	if err != nil {
		return nil, err
	}
	perFrame := int64(5 + 8*fleetChunk)
	env.wireBytes = int64(len(hello)+5) + perFrame*int64(fleetCleanFrames+fleetBurstFrames) + 5 // + bye
	return env, nil
}

func (env *fleetBenchEnv) serverConfig(sessions int) fleet.Config {
	return fleet.Config{
		Models:      fleet.StaticModels{"synthfleet": env.model},
		MaxSessions: sessions + 8,
		Stream: stream.Config{
			STFT:    env.stft,
			Peaks:   env.peaks,
			Monitor: core.DefaultMonitorConfig(),
		},
	}
}

// helloHandshake dials addr, sends the hello, and returns the welcomed
// connection. Against a coordinator the first answer is a redirect to
// the backend owning the device's ring span; the handshake follows one
// hop and re-sends the hello there.
func helloHandshake(addr string, hello []byte, followRedirect bool) (net.Conn, *bufio.Reader, error) {
	for hops := 0; ; hops++ {
		conn, err := net.DialTimeout("tcp", addr, 30*time.Second)
		if err != nil {
			return nil, nil, fmt.Errorf("dial: %w", err)
		}
		conn.SetDeadline(time.Now().Add(fleetRungTimeout))
		bw := bufio.NewWriter(conn)
		werr := fleet.WriteFrame(bw, fleet.FrameHello, hello)
		if werr == nil {
			werr = bw.Flush()
		}
		if werr != nil {
			conn.Close()
			return nil, nil, fmt.Errorf("hello: %w", werr)
		}
		br := bufio.NewReaderSize(conn, 1<<15)
		typ, payload, err := fleet.ReadFrame(br, fleet.DefaultMaxFrameBytes)
		switch {
		case err != nil:
			conn.Close()
			return nil, nil, fmt.Errorf("welcome: %w", err)
		case typ == fleet.FrameWelcome:
			return conn, br, nil
		case typ == fleet.FrameRedirect && followRedirect && hops == 0:
			conn.Close()
			var rd fleet.Redirect
			if err := json.Unmarshal(payload, &rd); err != nil {
				return nil, nil, fmt.Errorf("redirect: %w", err)
			}
			addr = rd.Addr
		default:
			conn.Close()
			return nil, nil, fmt.Errorf("welcome: frame 0x%02x %q", typ, payload)
		}
	}
}

// fleetSession drives one client: hello (via one redirect hop when
// dialing a coordinator), paced clean frames, anomalous burst (timing
// first-write to first-report), bye, summary.
func (env *fleetBenchEnv) fleetSession(addr string, idx, sessions int, viaCoord bool, welcomed *sync.WaitGroup, reports *atomic.Int64) (latency time.Duration, err error) {
	h := fleet.Hello{
		Device:         fmt.Sprintf("bench-%05d", idx),
		Workload:       "synthfleet",
		DisableDCBlock: true,
	}
	if viaCoord {
		h.Proto = fleet.ProtoRedirect
	}
	hello, err := json.Marshal(h)
	if err != nil {
		welcomed.Done()
		return 0, fmt.Errorf("hello: %w", err)
	}
	conn, br, err := helloHandshake(addr, hello, viaCoord)
	welcomed.Done()
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)

	// Reader: timestamp the first report after the burst starts.
	var burstT0 atomic.Int64 // ns since start; 0 = burst not started
	var firstReport atomic.Int64
	readerErr := make(chan error, 1)
	start := time.Now()
	go func() {
		for {
			typ, payload, err := fleet.ReadFrame(br, fleet.DefaultMaxFrameBytes)
			if err != nil {
				readerErr <- fmt.Errorf("read: %w", err)
				return
			}
			switch typ {
			case fleet.FrameReport:
				reports.Add(1)
				if burstT0.Load() != 0 && firstReport.Load() == 0 {
					firstReport.Store(int64(time.Since(start)))
				}
			case fleet.FrameSummary:
				readerErr <- nil
				return
			case fleet.FrameError:
				readerErr <- fmt.Errorf("server error: %s", payload)
				return
			}
		}
	}()

	// Stagger session starts across one pace interval so frame arrivals
	// spread instead of beating in lockstep.
	time.Sleep(time.Duration(idx) * fleetPace / time.Duration(sessions))
	for _, f := range env.cleanFrames {
		if err := fleet.WriteFrame(bw, fleet.FrameSamples, f); err != nil {
			return 0, fmt.Errorf("clean frame: %w", err)
		}
		if err := bw.Flush(); err != nil {
			return 0, fmt.Errorf("clean flush: %w", err)
		}
		time.Sleep(fleetPace)
	}
	burstT0.Store(int64(time.Since(start)))
	for _, f := range env.burstFrames {
		if err := fleet.WriteFrame(bw, fleet.FrameSamples, f); err != nil {
			return 0, fmt.Errorf("burst frame: %w", err)
		}
	}
	if err := fleet.WriteFrame(bw, fleet.FrameBye, nil); err != nil {
		return 0, fmt.Errorf("bye: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("bye flush: %w", err)
	}
	if err := <-readerErr; err != nil {
		return 0, err
	}
	t1 := firstReport.Load()
	if t1 == 0 {
		return 0, fmt.Errorf("burst produced no report")
	}
	return time.Duration(t1 - burstT0.Load()), nil
}

// driveRung points the client swarm at addr and fills in the measured
// fields of res: latency percentiles, alarm throughput, per-session
// memory, failures and the sustained verdict.
func (env *fleetBenchEnv) driveRung(res *fleetRungResult, addr string, sessions int, viaCoord bool) {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	var (
		wg       sync.WaitGroup
		welcomed sync.WaitGroup
		reports  atomic.Int64
		mu       sync.Mutex
		lats     []time.Duration
		failures int
	)
	welcomed.Add(sessions)
	start := time.Now()
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lat, err := env.fleetSession(addr, i, sessions, viaCoord, &welcomed, &reports)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failures++
				if failures == 1 {
					fmt.Fprintf(os.Stderr, "  [%s n=%d] first failure: %v\n", res.Mode, sessions, err)
				}
				return
			}
			lats = append(lats, lat)
		}(i)
	}

	// Sample memory at peak concurrency: all sessions admitted, clean
	// phase in flight. The delta includes the bench's own client state.
	welcomed.Wait()
	runtime.GC()
	var peak runtime.MemStats
	runtime.ReadMemStats(&peak)
	inuse := func(m *runtime.MemStats) int64 { return int64(m.HeapInuse + m.StackInuse) }
	if d := inuse(&peak) - inuse(&base); d > 0 {
		res.MemBytesPerSession = d / int64(sessions)
	}

	wg.Wait()
	res.DurationSec = time.Since(start).Seconds()

	res.Failures = failures
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		res.P50Ms = float64(lats[len(lats)/2].Microseconds()) / 1e3
		res.P99Ms = float64(lats[len(lats)*99/100].Microseconds()) / 1e3
	}
	if res.DurationSec > 0 {
		res.AlarmsPerSec = float64(reports.Load()) / res.DurationSec
	}
	res.Sustained = failures == 0 && len(lats) == sessions && res.P99Ms <= fleetSustainP99Ms
}

// runFleetRung runs one point of the single-node ladder.
func runFleetRung(env *fleetBenchEnv, sessions int) (fleetRungResult, error) {
	res := fleetRungResult{Mode: "sharded", Sessions: sessions, WireBytesPerSession: env.wireBytes}

	srv, err := fleet.NewServer(env.serverConfig(sessions))
	if err != nil {
		return res, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	env.driveRung(&res, ln.Addr().String(), sessions, false)

	srv.Close()
	<-serveDone
	return res, nil
}

// runCoordRung runs one coordinator point: `backends` sharded fleet
// servers behind a consistent-hash coordinator that enforces a hard
// perCap admission bound per backend, with the whole swarm saying hello
// to the coordinator and following its redirects.
func runCoordRung(env *fleetBenchEnv, backends, perCap, sessions int) (fleetRungResult, error) {
	res := fleetRungResult{
		Mode:                fmt.Sprintf("coord-%d", backends),
		Backends:            backends,
		Sessions:            sessions,
		WireBytesPerSession: env.wireBytes,
	}
	var (
		srvs  []*fleet.Server
		dones []chan error
		addrs []string
	)
	defer func() {
		for _, s := range srvs {
			s.Close()
		}
		for _, d := range dones {
			<-d
		}
	}()
	for i := 0; i < backends; i++ {
		// serverConfig leaves each backend an 8-session margin over the
		// coordinator's hard cap: admission is enforced at the
		// coordinator, and a load-estimate reconcile race there must not
		// turn into a spurious backend refusal.
		srv, err := fleet.NewServer(env.serverConfig(perCap))
		if err != nil {
			return res, err
		}
		srvs = append(srvs, srv)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return res, err
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		dones = append(dones, done)
		addrs = append(addrs, ln.Addr().String())
	}

	c, err := coord.New(coord.Config{
		Backends:      addrs,
		PerBackendCap: perCap,
		ProbeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		return res, err
	}
	defer c.Close()
	if err := c.WaitReady(10 * time.Second); err != nil {
		return res, err
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- c.Serve(cln) }()

	env.driveRung(&res, cln.Addr().String(), sessions, true)

	c.Close()
	<-serveDone
	return res, nil
}

// runFleetBench climbs the session ladder and the coordinator rungs and
// writes the JSON results, gated against the checked-in baseline.
func runFleetBench(path string, short, smoke bool) error {
	// Density is a per-box headline, so rungs run at full machine width
	// even when the environment lowered GOMAXPROCS.
	runtime.GOMAXPROCS(runtime.NumCPU())

	ladder := []int{64, 96, 128, 192, 256, 512, 1024, 2048}
	if short {
		ladder = []int{32, 128}
	}
	if smoke {
		ladder = []int{16}
	}

	env, err := newFleetBenchEnv()
	if err != nil {
		return err
	}

	out := fleetBenchFile{
		benchHeader:    newBenchHeader(),
		ChunkSamples:   fleetChunk,
		CleanFrames:    fleetCleanFrames,
		BurstFrames:    fleetBurstFrames,
		PaceMs:         float64(fleetPace.Milliseconds()),
		LatencyBoundMs: fleetLatencyBoundMs,
		SustainP99Ms:   fleetSustainP99Ms,
	}

	sum := &out.Sharded
	sum.AdmissionCap = fleet.DefaultMaxSessions()
	// Single-shot latency on a shared box is ~1.3x noisy while the
	// regression gate is 20%, so every rung is best-of-two (one attempt
	// in smoke mode, which is ungated).
	attempts := 2
	if smoke {
		attempts = 1
	}
	for _, n := range ladder {
		res, err := bestRung(attempts, func() (fleetRungResult, error) { return runFleetRung(env, n) })
		if err != nil {
			return fmt.Errorf("sharded n=%d: %w", n, err)
		}
		out.Rungs = append(out.Rungs, res)
		printFleetRung(res)
		if !res.Sustained {
			break // higher rungs only get worse
		}
		sum.MeasuredSustained = n
		sum.P99Ms = res.P99Ms
	}
	sum.SessionsPerNode = min(sum.MeasuredSustained, sum.AdmissionCap)
	fmt.Printf("sessions/node: %d (cap %d)\n", sum.SessionsPerNode, sum.AdmissionCap)

	// Coordinator scaling phase: does adding a backend add capacity?
	perCap := fleetCoordPerNodeCap
	if short {
		perCap = 16
	}
	if smoke {
		perCap = 8
	}
	type coordPoint struct{ backends, sessions int }
	points := []coordPoint{
		{1, perCap},     // fits under one backend's cap
		{1, 2 * perCap}, // must fail: the cap is real
		{2, 2 * perCap}, // the same doubled load, spread across two backends
	}
	if smoke {
		// One tiny multi-backend rung: the coordinator redirects, both
		// backends admit, every burst reports.
		points = []coordPoint{{2, 2 * perCap}}
	}
	out.Coord1 = fleetCoordSummary{Backends: 1, PerBackendCap: perCap}
	out.Coord2 = fleetCoordSummary{Backends: 2, PerBackendCap: perCap}
	coordSums := map[int]*fleetCoordSummary{1: &out.Coord1, 2: &out.Coord2}
	for _, pt := range points {
		n := attempts
		if pt.sessions > pt.backends*perCap {
			// The over-cap probe is qualitative — admission must refuse the
			// spill — so one attempt suffices.
			n = 1
		}
		res, err := bestRung(n, func() (fleetRungResult, error) {
			return runCoordRung(env, pt.backends, perCap, pt.sessions)
		})
		if err != nil {
			return fmt.Errorf("coord-%d n=%d: %w", pt.backends, pt.sessions, err)
		}
		out.CoordRungs = append(out.CoordRungs, res)
		printFleetRung(res)
		if sum := coordSums[pt.backends]; res.Sustained && pt.sessions > sum.MeasuredSustained {
			sum.MeasuredSustained = pt.sessions
			sum.P99Ms = res.P99Ms
		}
	}
	if out.Coord1.MeasuredSustained > 0 {
		out.CoordSpeedup = float64(out.Coord2.MeasuredSustained) / float64(out.Coord1.MeasuredSustained)
	}

	if smoke {
		return writeGated(path, &out, nil) // liveness check: ungated
	}
	fmt.Printf("coord scaling: 2 backends sustain %d vs 1 backend %d (per-backend cap %d): %.1fx\n",
		out.Coord2.MeasuredSustained, out.Coord1.MeasuredSustained, perCap, out.CoordSpeedup)
	if out.CoordSpeedup < fleetCoordSpeedupFloor {
		return fmt.Errorf("coordinator scaling below floor: 2 backends sustain %d vs 1 backend's %d (%.2fx < %.1fx); baseline %s left untouched",
			out.Coord2.MeasuredSustained, out.Coord1.MeasuredSustained, out.CoordSpeedup, fleetCoordSpeedupFloor, path)
	}
	return writeGated(path, &out, fleetGates)
}

// bestRung runs a rung attempts times and keeps the sustained attempt,
// or the lower p99 when all land the same way. A rung genuinely over
// the latency bound misses every time.
func bestRung(attempts int, run func() (fleetRungResult, error)) (fleetRungResult, error) {
	var res fleetRungResult
	for a := 0; a < attempts; a++ {
		r, err := run()
		if err != nil {
			return r, err
		}
		if a == 0 || (r.Sustained && !res.Sustained) ||
			(r.Sustained == res.Sustained && r.P99Ms < res.P99Ms) {
			res = r
		}
	}
	return res, nil
}

// printFleetRung prints one rung's line.
func printFleetRung(res fleetRungResult) {
	fmt.Printf("%-22s n=%-5d p50 %8.1f ms  p99 %8.1f ms  alarms/s %7.1f  mem/sess %7d B  fail %d  %s\n",
		res.Mode, res.Sessions, res.P50Ms, res.P99Ms, res.AlarmsPerSec, res.MemBytesPerSession, res.Failures,
		map[bool]string{true: "sustained", false: "NOT sustained"}[res.Sustained])
}
