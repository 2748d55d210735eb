package coord

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// devices returns n synthetic device IDs shaped like the fleet's real
// ones.
func devices(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("sensor-%04d.rack%d", i, i%7)
	}
	return out
}

// assign maps every device to its owner.
func assign(r *Ring, devs []string) map[string]string {
	out := make(map[string]string, len(devs))
	for _, d := range devs {
		m, ok := r.Owner(d, nil)
		if !ok {
			panic("empty ring")
		}
		out[d] = m
	}
	return out
}

// TestRingBalance checks that virtual nodes smooth the load: across 10k
// devices on 4 backends no backend carries more than 2x the lightest
// one, and the hash-space balance metric agrees.
func TestRingBalance(t *testing.T) {
	r := NewRing(DefaultVirtualNodes)
	backends := []string{"10.0.0.1:9000", "10.0.0.2:9000", "10.0.0.3:9000", "10.0.0.4:9000"}
	for _, b := range backends {
		r.Add(b)
	}
	counts := map[string]int{}
	for _, d := range devices(10000) {
		m, ok := r.Owner(d, nil)
		if !ok {
			t.Fatal("Owner failed on a populated ring")
		}
		counts[m]++
	}
	if len(counts) != len(backends) {
		t.Fatalf("only %d of %d backends received devices: %v", len(counts), len(backends), counts)
	}
	min, max := 1<<30, 0
	for _, n := range counts {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if ratio := float64(max) / float64(min); ratio > 2.0 {
		t.Errorf("max/min load ratio %.2f exceeds 2.0: %v", ratio, counts)
	}
	if b := r.Balance(); b < 1.0 || b > 2.0 {
		t.Errorf("hash-space balance %.3f outside [1, 2]", b)
	}
}

// TestRingMinimalMovementOnAdd checks the consistent-hashing contract:
// adding a backend moves only the devices that land on the new backend,
// everything else keeps its owner.
func TestRingMinimalMovementOnAdd(t *testing.T) {
	devs := devices(10000)
	r := NewRing(DefaultVirtualNodes)
	r.Add("a:1")
	r.Add("b:1")
	r.Add("c:1")
	before := assign(r, devs)
	r.Add("d:1")
	after := assign(r, devs)
	moved := 0
	for _, d := range devs {
		if before[d] != after[d] {
			moved++
			if after[d] != "d:1" {
				t.Fatalf("device %s moved %s -> %s, not to the new backend",
					d, before[d], after[d])
			}
		}
	}
	// The new backend should own ~1/4 of the keys; allow wide slack but
	// reject both "nothing moved" and "everything reshuffled".
	if moved < len(devs)/10 || moved > len(devs)/2 {
		t.Errorf("adding 4th backend moved %d of %d devices, want ~1/4", moved, len(devs))
	}
}

// TestRingMinimalMovementOnRemove checks the inverse: removing a
// backend moves only its own devices (onto survivors) and no others.
func TestRingMinimalMovementOnRemove(t *testing.T) {
	devs := devices(10000)
	r := NewRing(DefaultVirtualNodes)
	for _, b := range []string{"a:1", "b:1", "c:1", "d:1"} {
		r.Add(b)
	}
	before := assign(r, devs)
	r.Remove("b:1")
	after := assign(r, devs)
	for _, d := range devs {
		if before[d] == "b:1" {
			if after[d] == "b:1" {
				t.Fatalf("device %s still owned by removed backend", d)
			}
		} else if before[d] != after[d] {
			t.Fatalf("device %s moved %s -> %s though its owner survived",
				d, before[d], after[d])
		}
	}
}

// TestRingRejectWalksClockwise checks bounded-load behavior: rejecting
// the natural owner hands the span to another member, rejecting all
// members fails the lookup.
func TestRingRejectWalksClockwise(t *testing.T) {
	r := NewRing(DefaultVirtualNodes)
	r.Add("a:1")
	r.Add("b:1")
	natural, _ := r.Owner("dev-42", nil)
	alt, ok := r.Owner("dev-42", func(m string) bool { return m == natural })
	if !ok || alt == natural {
		t.Fatalf("rejecting %s gave (%s, %v), want the other member", natural, alt, ok)
	}
	if _, ok := r.Owner("dev-42", func(string) bool { return true }); ok {
		t.Fatal("rejecting every member still found an owner")
	}
}

// TestRingDeterministic checks that assignment is a pure function of
// the key and membership — same result on repeat lookups, under
// concurrency, and at any GOMAXPROCS (no per-process hash seed).
func TestRingDeterministic(t *testing.T) {
	devs := devices(1000)
	build := func() *Ring {
		r := NewRing(32)
		for _, b := range []string{"x:1", "y:1", "z:1"} {
			r.Add(b)
		}
		return r
	}
	want := assign(build(), devs)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		r := build()
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, d := range devs {
					if m, _ := r.Owner(d, nil); m != want[d] {
						select {
						case errs <- fmt.Sprintf("GOMAXPROCS=%d: %s -> %s, want %s", procs, d, m, want[d]):
						default:
						}
						return
					}
				}
			}()
		}
		wg.Wait()
		runtime.GOMAXPROCS(prev)
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}

// TestRingIdempotentMutations checks Add/Remove tolerate repeats.
func TestRingIdempotentMutations(t *testing.T) {
	r := NewRing(16)
	r.Add("a:1")
	r.Add("a:1")
	if r.Len() != 1 {
		t.Fatalf("double Add produced %d members", r.Len())
	}
	r.Remove("a:1")
	r.Remove("a:1")
	r.Remove("ghost:1")
	if r.Len() != 0 {
		t.Fatalf("ring not empty after removals: %d members", r.Len())
	}
	if _, ok := r.Owner("dev", nil); ok {
		t.Fatal("empty ring returned an owner")
	}
}
