package core

import (
	"testing"

	"eddie/internal/stats"
)

// TestSelectGroupSizeEmptySeqs is the regression test for the empty-seqs
// guard: a region can carry modes but no tagged sequences (e.g. a model
// assembled by hand or from pooled windows), and the visit-length median
// used to index an empty slice. The sweep has nothing to measure, so the
// smallest candidate is the right answer.
func TestSelectGroupSizeEmptySeqs(t *testing.T) {
	tc := DefaultTrainConfig()
	pooled := [][]float64{{1, 2, 3}, {4, 5, 6}}
	rm := &RegionModel{
		Region:   1,
		NumPeaks: 2,
		Modes: []RegionMode{
			{Run: 0, Ref: [][]float64{{1, 2, 3}, {4, 5, 6}}},
		},
		TrainWindows: 3,
	}
	cAlpha := stats.KolmogorovInverse(1 - tc.Alpha)
	got := selectGroupSize(rm, pooled, nil, cAlpha)
	want := groupSizeGrid[0] // the grid is ascending
	if got != want {
		t.Errorf("selectGroupSize with empty seqs = %d, want minimum candidate %d", got, want)
	}
	if got2 := selectGroupSize(rm, pooled, []taggedSeq{}, cAlpha); got2 != want {
		t.Errorf("selectGroupSize with zero-length seqs = %d, want %d", got2, want)
	}
}
