package fleet

import (
	"testing"

	"eddie/internal/allocguard"
)

// TestFifoOrder pushes and pops across several growth cycles and checks
// strict FIFO order.
func TestFifoOrder(t *testing.T) {
	var q fifo[int]
	next, want := 0, 0
	for round := 0; round < 5; round++ {
		for i := 0; i < 37; i++ {
			q.push(next)
			next++
		}
		for i := 0; i < 23; i++ {
			v, ok := q.pop()
			if !ok {
				t.Fatalf("pop %d: empty", want)
			}
			if v != want {
				t.Fatalf("pop %d: got %d", want, v)
			}
			want++
		}
	}
	for q.len() > 0 {
		v, ok := q.pop()
		if !ok || v != want {
			t.Fatalf("tail pop: got %d ok=%v, want %d", v, ok, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d items, pushed %d", want, next)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on empty queue reported ok")
	}
}

// TestFifoWraparound forces the ring's head past the wrap point before
// growing, which exercises the relinearizing copy.
func TestFifoWraparound(t *testing.T) {
	var q fifo[int]
	for i := 0; i < 8; i++ {
		q.push(i)
	}
	for i := 0; i < 6; i++ {
		q.pop()
	}
	// head is now at 6 of an 8-slot ring; these wrap, then force growth.
	for i := 8; i < 20; i++ {
		q.push(i)
	}
	for want := 6; want < 20; want++ {
		v, ok := q.pop()
		if !ok || v != want {
			t.Fatalf("got %d ok=%v, want %d", v, ok, want)
		}
	}
}

// TestFifoDrainTo drains into a reused destination and checks order,
// emptiness, and that the backing array is reused (no allocation in
// steady state).
func TestFifoDrainTo(t *testing.T) {
	var q fifo[int]
	var dst []int
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			q.push(round*10 + i)
		}
		dst = q.drainTo(dst[:0])
		if len(dst) != 10 {
			t.Fatalf("round %d: drained %d items", round, len(dst))
		}
		for i, v := range dst {
			if v != round*10+i {
				t.Fatalf("round %d: dst[%d] = %d", round, i, v)
			}
		}
		if q.len() != 0 {
			t.Fatalf("round %d: %d items left after drain", round, q.len())
		}
	}
	// Steady state, measured over whole passes of 26 steps: step i
	// pushes 1+i%4 items and pops 1+i%3, so the head walks around the
	// ring and pushes wrap past its end; the last step drains the rest.
	// The warm-up pass grows the ring to its largest occupancy.
	const steps = 26
	allocguard.Zero(t, "fifo push+pop+drain", 20, steps, func(i int) {
		for j := 0; j <= i%4; j++ {
			q.push(j)
		}
		for j := 0; j <= i%3; j++ {
			q.pop()
		}
		if i == steps-1 {
			dst = q.drainTo(dst[:0])
		}
	})
}

// TestFifoZeroesSlots checks popped and drained slots do not pin their
// old contents (pointer elements must be released for GC).
func TestFifoZeroesSlots(t *testing.T) {
	var q fifo[*int]
	v := new(int)
	q.push(v)
	q.pop()
	for i := range q.buf {
		if q.buf[i] != nil {
			t.Fatalf("slot %d still holds a pointer after pop", i)
		}
	}
	q.push(v)
	q.drainTo(nil)
	for i := range q.buf {
		if q.buf[i] != nil {
			t.Fatalf("slot %d still holds a pointer after drain", i)
		}
	}
}
