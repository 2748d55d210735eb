// Package coord is EDDIE's multi-node fleet coordinator: one light
// process fronting N fleet backends, sharding devices across them by
// consistent hash of device ID so monitoring capacity scales
// horizontally (the ROADMAP's "multi-node fleet" item; Vedros et al.
// frame fleet scale as the central systems challenge for EM-based
// monitoring).
//
// The coordinator speaks the existing length-prefixed fleet protocol:
// a device says hello, the coordinator answers with a redirect to the
// backend that owns the device's ring span, and the device re-dials the
// backend directly — steady-state sample traffic never flows through
// the coordinator, so it is never the data-plane bottleneck. Backends
// are health-probed over a small control RPC (liveness plus a
// queue-depth/latency load report); a backend that dies or burns its
// latency SLO is drained from the ring and its span re-homes to the
// survivors, journaled as a `rehome` event. Devices re-dial with
// jittered backoff and resume on the new owner with fresh detector
// state — no device goes dark because one backend did.
package coord

import (
	"sort"
	"sync"
)

// DefaultVirtualNodes is how many ring points each backend gets on the
// coordinator's ring: enough that each backend's owned span is
// the sum of many small arcs (arc-length variance shrinks like
// 1/sqrt(vnodes), so 160 points — the ketama convention — keeps the
// hottest backend within ~2x of the coldest) while keeping ring
// rebuilds trivially cheap.
const DefaultVirtualNodes = 160

// Ring is a consistent-hash ring with virtual nodes. Each member owns
// the arcs that precede its points; a key belongs to the member of the
// first point at or after the key's hash. Adding a member moves only
// ~1/N of the keys (onto the new member); removing one moves only its
// own keys (onto the survivors). Owner lookups take a reject callback,
// giving bounded-load behavior: a span whose owner is full or down
// walks clockwise to the next member with headroom.
//
// Hashing is pure FNV-1a over the key bytes — fully deterministic, no
// per-process seed — so every coordinator replica, at any GOMAXPROCS,
// maps a device to the same backend.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	points  []ringPoint // sorted by hash
	members map[string]struct{}
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing creates an empty ring with the given virtual-node count per
// member (<= 0 uses DefaultVirtualNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, members: map[string]struct{}{}}
}

// fnv64a hashes s with 64-bit FNV-1a, then runs the splitmix64
// finalizer: FNV alone avalanches poorly on inputs differing only in
// the last byte (exactly what consecutive vnode labels look like), and
// clustered ring points defeat the whole virtual-node smoothing.
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// vnodeHash is the ring position of member's i-th virtual node. The
// "#i" suffix keeps a member's points spread independently of other
// members sharing a prefix.
func vnodeHash(member string, i int) uint64 {
	// Append the index digits without fmt (rings rebuild on every
	// health transition).
	buf := make([]byte, 0, len(member)+8)
	buf = append(buf, member...)
	buf = append(buf, '#')
	if i == 0 {
		buf = append(buf, '0')
	}
	for d := i; d > 0; d /= 10 {
		buf = append(buf, byte('0'+d%10))
	}
	return fnv64a(string(buf))
}

// Add inserts a member (idempotent).
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; ok {
		return
	}
	r.members[member] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{vnodeHash(member, i), member})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member and its points (idempotent).
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; !ok {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner returns the member owning key, walking clockwise past members
// the reject callback refuses (down, at capacity). A nil reject accepts
// everyone. Returns ok=false when the ring is empty or every member is
// rejected; reject is called at most once per distinct member.
func (r *Ring) Owner(key string, reject func(member string) bool) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.points)
	if n == 0 {
		return "", false
	}
	h := fnv64a(key)
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= h }) % n
	var tried map[string]bool
	for i := 0; i < n; i++ {
		m := r.points[(start+i)%n].member
		if tried[m] {
			continue
		}
		if reject == nil || !reject(m) {
			return m, true
		}
		if tried == nil {
			tried = make(map[string]bool, len(r.members))
		}
		tried[m] = true
		if len(tried) == len(r.members) {
			break
		}
	}
	return "", false
}

// Len reports the live member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Balance reports how evenly the hash space is owned: the largest
// member's owned fraction times the member count, so 1.0 is a perfect
// split and 2.0 means the hottest member owns twice its fair share.
// Returns 0 on an empty ring.
func (r *Ring) Balance() float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return 0
	}
	span := map[string]uint64{}
	prev := r.points[len(r.points)-1].hash // arc wrapping through zero
	for _, p := range r.points {
		span[p.member] += p.hash - prev // uint64 wraparound handles the seam
		prev = p.hash
	}
	var max uint64
	for _, s := range span {
		if s > max {
			max = s
		}
	}
	// The untyped constant 1<<64 is exact in float64 context.
	return float64(max) / (1 << 64) * float64(len(span))
}
