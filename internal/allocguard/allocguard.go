// Package allocguard holds the one zero-allocation check the
// steady-state tests share.
//
// testing.AllocsPerRun returns its per-run average truncated to an
// integer. A guard that measures one call per run therefore reads an
// allocation on fewer than half of the calls as 0: a buffer that
// regrows every eighth window, or a refactor that allocates once per
// stride, passes it. Zero measures whole passes instead: each run makes
// calls consecutive calls, so a single allocation anywhere in a pass
// reads as at least 1.
package allocguard

import "testing"

// Zero asserts that calls consecutive calls of call(i), i = 0..calls-1,
// allocate nothing. AllocsPerRun makes runs measured passes after one
// warm-up pass, so call sees runs+1 passes in all; an allocation that
// recurs at most every calls calls fails the check.
func Zero(tb testing.TB, what string, runs, calls int, call func(i int)) {
	tb.Helper()
	avg := testing.AllocsPerRun(runs, func() {
		for i := 0; i < calls; i++ {
			call(i)
		}
	})
	if avg != 0 {
		tb.Errorf("%s allocates %.0f times per %d-call pass, want 0", what, avg, calls)
	}
}
