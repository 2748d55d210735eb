package core

import (
	"math/rand"
	"testing"

	"eddie/internal/stats"
)

// benchEvalSetup trains a 16-mode model on the two-nest synthetic
// machine and builds one monitored group of size n whose peak
// frequencies sit 5% off every training mode: the multi-mode worst case,
// where evalGroups scans all 16 modes before rejecting. The counts and
// energies are in-bounds so the scan is not short-circuited.
func benchEvalSetup(b *testing.B, n int) (*RegionModel, *groupSet, float64) {
	b.Helper()
	m := testMachine(b)
	runs := synthTrainingRuns(m, 16, 100e3, 250e3)
	tc := DefaultTrainConfig()
	model, err := Train("synthetic", m, runs, tc)
	if err != nil {
		b.Fatal(err)
	}
	rm := model.Regions[m.LoopRegionOf(0)]
	if rm == nil || len(rm.Modes) != 16 {
		b.Fatalf("unexpected bench model: %+v", rm)
	}
	g := newGroupSet(rm.NumPeaks, n)
	g.reset()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		g.counts = append(g.counts, float64(rm.NumPeaks))
		g.energies = append(g.energies, 1050+r.Float64()*10)
		for k := 0; k < rm.NumPeaks; k++ {
			ref := rm.Modes[0].Ref[k]
			g.ranks[k] = append(g.ranks[k], ref[r.Intn(len(ref))]*1.05)
		}
	}
	return rm, &g, stats.KolmogorovInverse(1 - tc.Alpha)
}

// BenchmarkEvalGroups measures one full multi-mode region decision, at
// the shared rejectFraction, on an anomalous group of 96 windows (the
// largest candidate in the default group-size grid): 16 modes x 5 ranks
// of the zero-copy presorted K-S kernel, which counts the longer sample
// by galloping binary search, per op. The group's one up-front sort is
// amortized across every re-test by the monitor's fill-slot cache, so it
// is excluded here the same way it is amortized in production.
func BenchmarkEvalGroups(b *testing.B) {
	const n = 96
	rm, g, cAlpha := benchEvalSetup(b, n)
	g.sortAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := evalGroups(rm, rm.Modes, g, cAlpha, 0, nil)
		if !res.rejected {
			b.Fatal("anomalous group accepted")
		}
	}
}
