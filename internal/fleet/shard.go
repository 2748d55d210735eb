package fleet

import (
	"fmt"
	"sync"
	"time"

	"eddie/internal/metrics"
)

// shard owns one processor goroutine and a run queue of ready sessions.
// Sessions are hashed onto shards by device id, so a node hosts
// Config.Shards processor goroutines total instead of one per
// connection; each scheduling turn drains everything a session has
// queued and feeds it to the detector as one batch. Readers stay thin
// (decode + enqueue only) and block on the per-session pending cap, so
// TCP flow control still pushes back on individual devices.
type shard struct {
	srv   *Server
	id    int
	label string

	mu     sync.Mutex
	cond   *sync.Cond
	runq   fifo[*session]
	closed bool

	gDepth   *metrics.Gauge   // sessions waiting for this processor
	cBatches *metrics.Counter // scheduling turns executed
	// Per-shard latency/depth histograms (log-bucketed, zero-alloc
	// record): frame-to-verdict latency of each completed turn, the
	// turn's own processing duration, and the run-queue depth observed
	// at each turn. Always on — a handful of atomic adds per turn.
	hVerdict *metrics.LogHistogram // fleet_frame_to_verdict_ns
	hTurn    *metrics.LogHistogram // fleet_turn_ns
	hQDepth  *metrics.LogHistogram // fleet_turn_queue_depth
	done     chan struct{}         // closed when the processor exits
}

// newShard creates a shard and starts its processor goroutine. label
// names the shard's instruments in the registry.
func newShard(srv *Server, id int, label string) *shard {
	sh := &shard{srv: srv, id: id, label: label, done: make(chan struct{})}
	sh.cond = sync.NewCond(&sh.mu)
	sh.gDepth = srv.reg.Gauge("fleet_shard_depth/" + label)
	sh.cBatches = srv.reg.Counter("fleet_shard_batches/" + label)
	sh.hVerdict = srv.reg.LogHist("fleet_frame_to_verdict_ns/" + label)
	sh.hTurn = srv.reg.LogHist("fleet_turn_ns/" + label)
	sh.hQDepth = srv.reg.LogHist("fleet_turn_queue_depth/" + label)
	go sh.run()
	return sh
}

// enqueue hands a ready session to the processor. The caller must have
// set the session's queued flag; a session is in at most one run-queue
// slot at a time. Enqueues on a stopped shard are dropped — the server
// only stops shards after every session has finished.
func (sh *shard) enqueue(ss *session) {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return
	}
	sh.runq.push(ss)
	sh.mu.Unlock()
	sh.gDepth.Inc()
	sh.cond.Signal()
}

// run is the processor loop: pop a ready session, give it one batched
// scheduling turn, requeue it at the tail if it has more work (FIFO
// fairness across sessions on the shard).
func (sh *shard) run() {
	defer close(sh.done)
	for {
		sh.mu.Lock()
		for sh.runq.len() == 0 && !sh.closed {
			sh.cond.Wait()
		}
		ss, ok := sh.runq.pop()
		sh.mu.Unlock()
		if !ok { // closed and drained
			return
		}
		sh.gDepth.Dec()
		sh.cBatches.Inc()
		sh.hQDepth.Record(sh.gDepth.Value())
		t0 := time.Now()
		requeue := ss.processTurn()
		sh.hTurn.Record(int64(time.Since(t0)))
		if requeue {
			sh.enqueue(ss)
		}
	}
}

// stop asks the processor to exit once its run queue is empty.
func (sh *shard) stop() {
	sh.mu.Lock()
	sh.closed = true
	sh.mu.Unlock()
	sh.cond.Broadcast()
}

// shardIndex maps a device id onto one of n shards with FNV-1a, so a
// device's frames always reach the same processor goroutine.
func shardIndex(device string, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(device); i++ {
		h ^= uint32(device[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// shardFor picks the session's shard: the device's hashed slot of the
// shared pool.
func (s *Server) shardFor(device string) *shard {
	return s.shards[shardIndex(device, len(s.shards))]
}

// stopShards stops the shared shard pool; idempotent.
func (s *Server) stopShards() {
	s.shardStop.Do(func() {
		for _, sh := range s.shards {
			sh.stop()
		}
	})
}

// shardLabel names a shared shard's instruments.
func shardLabel(i int) string { return fmt.Sprintf("s%02d", i) }
