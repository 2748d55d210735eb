package core

import (
	"fmt"
	"sort"
	"sync"

	"eddie/internal/cfg"
	"eddie/internal/stats"
)

// RegionModel is the trained characterization of one region: its reference
// peak-frequency distributions per peak rank and the K-S group size chosen
// for it during training (§4.3: the accuracy/latency trade-off is managed
// per region).
type RegionModel struct {
	// Region identifies the region in the program's region machine.
	Region cfg.RegionID
	// Label is the human-readable region name.
	Label string
	// NumPeaks is the number of peak ranks tracked for the region (the
	// typical peak count of its STSs). Zero marks a "blind" region whose
	// STSs have no usable peaks (e.g. the peakless GSM loop the paper
	// blames for poor coverage).
	NumPeaks int
	// Modes holds one reference distribution per training run that
	// visited the region. Within one execution the STSs of a region are
	// strongly correlated (one input → one spectral "mode"), so a
	// monitored group is compared against each training mode and accepted
	// if it is consistent with at least one — the pooled mixture would
	// reject any tight group outright (a point mass has K-S distance
	// >= 0.5 from any diffuse distribution). This is why the paper needs
	// "multiple runs ... to improve coverage" (§4.1). The pooled
	// cross-run reference is training-local: it sizes the group (see
	// detectableShiftD) and is not kept (PooledRefs rebuilds it).
	Modes []RegionMode
	// Counts summarizes the per-window peak counts of the training
	// windows: the "statistical properties of the spikes" beyond their
	// positions. Injected code typically adds spectral content, so the
	// count is a sensitive extra test dimension. The monitor reads only
	// its ends (CountBounds); the median is kept for rules that need the
	// sample's center.
	Counts stats.Summary
	// Energies summarizes the per-window AC spectral energy of the
	// training windows. A region's loops emit a characteristic level of
	// periodic modulation; injected activity with flat power (an empty
	// spin loop) or heavy off-chip traffic lands far outside it.
	Energies stats.Summary
	// GroupSize is the number of monitoring STSs jointly tested against
	// the modes (the n of §4.2/§4.3), selected per region during training.
	GroupSize int
	// TrainWindows is the number of training STSs the model was built
	// from, for reporting.
	TrainWindows int
}

// RegionMode is one training run's reference distributions for a region.
type RegionMode struct {
	// Run is the training-run index the mode came from.
	Run int
	// Ref[k] holds the rank-k peak frequencies of that run's windows in
	// this region, sorted ascending.
	Ref [][]float64
}

// Blind reports whether the region has no usable spectral peaks.
func (rm *RegionModel) Blind() bool { return rm.NumPeaks == 0 }

// Testable reports whether the region has reference modes to test against;
// untestable regions are handled like blind ones by the monitor.
func (rm *RegionModel) Testable() bool { return rm.NumPeaks > 0 && len(rm.Modes) > 0 }

// CountBounds returns the acceptable range of per-window peak counts: the
// full training range widened by three. The count test compares the
// *median* of a monitored group against these bounds. The margin is
// generous because marginal peaks flicker across the energy threshold
// from input to input, while code injections add an order of magnitude
// more spectral content — a 2-instruction in-loop injection already
// doubles the typical peak count.
func (rm *RegionModel) CountBounds() (lo, hi float64) {
	if rm.Counts.N == 0 {
		return 0, 0
	}
	return rm.Counts.Min - 3, rm.Counts.Max + 3
}

// EnergyBounds returns the acceptable range of per-window AC energy: the
// full training range widened by a generous multiplicative margin (the
// energy channel is a coarse physical check, not a precision test).
func (rm *RegionModel) EnergyBounds() (lo, hi float64) {
	if rm.Energies.N == 0 {
		return 0, 0
	}
	return rm.Energies.Min / 4, rm.Energies.Max * 4
}

// Model is a trained EDDIE model for one program.
type Model struct {
	// ProgramName identifies the application the model was trained for.
	ProgramName string
	// Machine is the program's region-level state machine.
	Machine *cfg.Machine
	// Regions maps region ids to their trained models. Regions never
	// observed in training have no entry (the paper notes multiple runs
	// are needed to cover all regions; unobserved regions are treated as
	// anomalous when visited).
	Regions map[cfg.RegionID]*RegionModel
	// Alpha is the K-S significance level (1 - confidence).
	Alpha float64
	// MaxGroupSize is the largest GroupSize across regions; the monitor
	// keeps this much history.
	MaxGroupSize int

	// regionIDs caches the sorted region-id listing. Models are immutable
	// once trained or loaded, so the listing is computed once and shared
	// by every monitor on the model — a fleet node running thousands of
	// sessions against one model would otherwise allocate a fresh id
	// slice per global rejection scan per session.
	regionIDsOnce sync.Once
	regionIDs     []cfg.RegionID
}

// RegionIDs returns the modeled regions in ascending order. The slice is
// cached on the model and shared: callers must not modify it.
func (m *Model) RegionIDs() []cfg.RegionID {
	m.regionIDsOnce.Do(func() {
		ids := make([]cfg.RegionID, 0, len(m.Regions))
		for id := range m.Regions {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		m.regionIDs = ids
	})
	return m.regionIDs
}

// String summarizes the model.
func (m *Model) String() string {
	s := fmt.Sprintf("EDDIE model for %q: %d regions, alpha=%g\n", m.ProgramName, len(m.Regions), m.Alpha)
	for _, id := range m.RegionIDs() {
		rm := m.Regions[id]
		s += fmt.Sprintf("  R%-3d %-22s peaks=%-2d n=%-3d windows=%d\n",
			id, rm.Label, rm.NumPeaks, rm.GroupSize, rm.TrainWindows)
	}
	return s
}
