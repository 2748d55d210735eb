package core

import (
	"testing"

	"eddie/internal/cfg"
	"eddie/internal/stats"
)

// TestRejectFractionBoundary pins the one region-acceptance rule at its
// edge: a group whose best mode rejects exactly ⌊ranks/2⌋ ranks is
// accepted (with bestRejFrac <= rejectFraction), one more rejecting rank
// rejects it, and a successor probe of the same windows switches exactly
// when evalGroups accepts. Both an even and an odd rank count are covered.
func TestRejectFractionBoundary(t *testing.T) {
	const (
		refLen = 40
		n      = probeWindows
	)
	// Rank k's reference spans [1000(k+1), 1000(k+1)+refLen); a rank
	// drawn from that span accepts, one moved 500 Hz above it rejects
	// (D = 1), and the ladder stays ascending either way.
	rankRef := func(k int) []float64 {
		ref := make([]float64, refLen)
		for i := range ref {
			ref[i] = float64(1000*(k+1) + i)
		}
		return ref
	}
	mach := testMachine(t)
	id := mach.LoopRegionOf(0)
	alpha := DefaultTrainConfig().Alpha
	cAlpha := stats.KolmogorovInverse(1 - alpha)
	for _, ranks := range []int{4, 5} {
		// Mode 0 sits 5 kHz above every rank, so each of its ranks
		// rejects; mode 1 is the reference the group is built against.
		far := RegionMode{Run: 0, Ref: make([][]float64, ranks)}
		near := RegionMode{Run: 1, Ref: make([][]float64, ranks)}
		for k := 0; k < ranks; k++ {
			near.Ref[k] = rankRef(k)
			far.Ref[k] = make([]float64, refLen)
			for i, v := range near.Ref[k] {
				far.Ref[k][i] = v + 5000
			}
		}
		rm := &RegionModel{
			Region:    id,
			NumPeaks:  ranks,
			Modes:     []RegionMode{far, near},
			GroupSize: n,
		}
		for _, rej := range []int{ranks / 2, ranks/2 + 1} {
			windows := make([]STS, n)
			g := newGroupSet(ranks, n)
			for w := range windows {
				peaks := make([]float64, ranks)
				for k := range peaks {
					peaks[k] = float64(1000*(k+1) + w*refLen/n)
					if k < rej {
						peaks[k] += 500
					}
					g.ranks[k] = append(g.ranks[k], peaks[k])
				}
				windows[w] = STS{PeakFreqs: peaks}
			}
			g.sortAll()
			res := evalGroups(rm, rm.Modes, &g, cAlpha, 0, nil)
			wantRejected := rej > ranks/2
			if res.rejected != wantRejected {
				t.Fatalf("ranks=%d rejecting=%d: rejected=%v, want %v", ranks, rej, res.rejected, wantRejected)
			}
			if want := float64(rej) / float64(ranks); res.bestRejFrac != want || res.bestMode != 1 {
				t.Errorf("ranks=%d rejecting=%d: best mode %d at %g, want mode 1 at %g",
					ranks, rej, res.bestMode, res.bestRejFrac, want)
			}
			if !res.rejected && res.bestRejFrac > rejectFraction {
				t.Errorf("ranks=%d rejecting=%d: accepted with bestRejFrac %g > %g",
					ranks, rej, res.bestRejFrac, rejectFraction)
			}

			model := &Model{
				ProgramName:  "boundary",
				Machine:      mach,
				Regions:      map[cfg.RegionID]*RegionModel{id: rm},
				Alpha:        alpha,
				MaxGroupSize: n,
			}
			mon, err := NewMonitor(model, DefaultMonitorConfig())
			if err != nil {
				t.Fatal(err)
			}
			for w := range windows {
				mon.push(&windows[w])
			}
			score, ok := mon.probe(rm)
			if ok == res.rejected {
				t.Errorf("ranks=%d rejecting=%d: probe ok=%v, evalGroups rejected=%v", ranks, rej, ok, res.rejected)
			}
			if ok && score != 1-res.bestRejFrac {
				t.Errorf("ranks=%d rejecting=%d: probe score %g, want %g", ranks, rej, score, 1-res.bestRejFrac)
			}
		}
	}
}
