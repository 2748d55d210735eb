package fleet

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"eddie/internal/dsp"
	"eddie/internal/pipeline"
	"eddie/internal/pipeline/pipetest"
)

// cleanSignal returns a detrended capture of the fixture workload with
// no injection (collected once per process).
var (
	cleanOnce    sync.Once
	cleanSamples []float64
	cleanErr     error
)

func cleanSignal(t *testing.T) []float64 {
	t.Helper()
	f := pipetest.Fixture(t)
	cleanOnce.Do(func() {
		run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, 417, nil)
		if err != nil {
			cleanErr = err
			return
		}
		cleanSamples = dsp.Detrend(run.Signal)
	})
	if cleanErr != nil {
		t.Fatal(cleanErr)
	}
	return cleanSamples
}

// TestFleetStressShardedChurn is the sharded pool's concurrency proof,
// meant to run under -race: at least 64 concurrent sessions multiplexed
// onto a handful of shard processors, mixing clean and anomalous
// streams with sessions that disconnect abruptly mid-stream. A tiny
// pending cap keeps the backpressure path hot. Every session that
// finishes cleanly must receive exactly the reports its summary counts
// (no report loss), and the final drain must complete without deadlock.
func TestFleetStressShardedChurn(t *testing.T) {
	f, anomalous := fleetSignal(t)
	clean := cleanSignal(t)

	cfg := serverConfig(f)
	cfg.MaxSessions = 256
	cfg.Shards = 4
	cfg.MaxPendingSamples = 2048 // two chunks deep: stalls are routine
	s, addr := startServer(t, cfg)

	limit := func(sig []float64, n int) []float64 {
		if len(sig) > n {
			return sig[:n]
		}
		return sig
	}
	cleanPart := limit(clean, 40_000)
	anomPart := limit(anomalous, 40_000)

	const sessions = 64
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dev := fmt.Sprintf("stress-%03d", i)
			hello := Hello{Device: dev, Workload: "bitcount", DisableDCBlock: true}

			if i%4 == 3 {
				// Abrupt mid-stream disconnect: no Bye, no Finish. The
				// server must tear the session down without wedging its
				// shard.
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					errs <- fmt.Errorf("%s: dial: %w", dev, err)
					return
				}
				if err := writeFrame(conn, FrameHello, mustJSON(hello)); err != nil {
					conn.Close()
					errs <- fmt.Errorf("%s: hello: %w", dev, err)
					return
				}
				conn.SetReadDeadline(time.Now().Add(30 * time.Second))
				if typ, _, err := readFrame(conn, DefaultMaxFrameBytes); err != nil || typ != FrameWelcome {
					conn.Close()
					errs <- fmt.Errorf("%s: welcome 0x%02x, err %v", dev, typ, err)
					return
				}
				for k := 0; k < 4; k++ {
					chunk := anomPart[k*1024 : (k+1)*1024]
					if err := writeFrame(conn, FrameSamples, EncodeSamples(chunk)); err != nil {
						break // server may already have hung up; that's its call
					}
				}
				conn.Close()
				errs <- nil
				return
			}

			sig := cleanPart
			if i%2 == 1 {
				sig = anomPart
			}
			c, err := DialConfig(addr, hello, ClientConfig{
				DialTimeout: 30 * time.Second,
				IOTimeout:   60 * time.Second,
			})
			if err != nil {
				errs <- fmt.Errorf("%s: dial: %w", dev, err)
				return
			}
			defer c.Close()
			for off := 0; off < len(sig); {
				k := 1024
				if off+k > len(sig) {
					k = len(sig) - off
				}
				if err := c.Send(sig[off : off+k]); err != nil {
					errs <- fmt.Errorf("%s: send: %w", dev, err)
					return
				}
				off += k
			}
			sum, reports, err := c.Finish()
			if err != nil {
				errs <- fmt.Errorf("%s: finish: %w", dev, err)
				return
			}
			if sum.Samples != int64(len(sig)) {
				errs <- fmt.Errorf("%s: samples %d, want %d", dev, sum.Samples, len(sig))
				return
			}
			// No report loss: the summary's count and the reports that
			// actually arrived over the wire must agree exactly.
			if sum.Reports != len(reports) {
				errs <- fmt.Errorf("%s: summary reports %d, received %d", dev, sum.Reports, len(reports))
				return
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Drain must complete promptly with all sessions gone — a stuck
	// shard or a leaked session would hang Shutdown.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after churn: %v", err)
	}

	reg := s.Registry()
	if got := reg.Counter("fleet_sessions_opened").Value(); got != sessions {
		t.Errorf("fleet_sessions_opened %d, want %d", got, sessions)
	}
	if got := reg.Counter("fleet_sessions_closed").Value(); got != sessions {
		t.Errorf("fleet_sessions_closed %d, want %d", got, sessions)
	}
	// 64 concurrent connects and disconnects of one workload must leave
	// its live-session count, listing and gauge alike, back at zero.
	page, _, _ := s.FleetSessionsPage(0, DefaultSessionPageLimit)
	if live := page.(map[string]any)["arenas"].(map[string]int); len(live) != 0 {
		t.Errorf("arenas %v after every session closed", live)
	}
	if got := reg.Gauge("fleet_arena_sessions/bitcount").Value(); got != 0 {
		t.Errorf("fleet_arena_sessions/bitcount %d after every session closed", got)
	}
	// With a two-chunk pending cap and 4 shards timeslicing 64 readers,
	// enqueue stalls are all but guaranteed; a zero here means the
	// backpressure path silently stopped counting.
	if got := reg.Counter("fleet_backpressure_stalls").Value(); got == 0 {
		t.Error("no backpressure stalls counted under a two-chunk pending cap")
	}
}
