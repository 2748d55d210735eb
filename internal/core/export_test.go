package core

import "unsafe"

// Synthetic-data helpers shared with the external core_test package.
var (
	SyntheticMachine  = testMachine
	SynthTrainingRuns = synthTrainingRuns
)

// AdaptShadowRegions returns how many regions have an adaptive shadow.
func (m *Monitor) AdaptShadowRegions() int {
	if m.adapt == nil {
		return 0
	}
	return len(m.adapt.regions)
}

// AdaptShadowBytes returns the bytes the adaptive shadows hold of their
// own: each shadow's struct and mode-header slice, and every slice of
// mode references that no longer aliases the trained model's.
func (m *Monitor) AdaptShadowBytes() int {
	if m.adapt == nil {
		return 0
	}
	total := 0
	for id, ar := range m.adapt.regions {
		src := m.model.Regions[id]
		total += int(unsafe.Sizeof(*ar)) + cap(ar.rm.Modes)*int(unsafe.Sizeof(RegionMode{}))
		for i, md := range ar.rm.Modes {
			if unsafe.SliceData(md.Ref) == unsafe.SliceData(src.Modes[i].Ref) {
				continue
			}
			total += cap(md.Ref) * int(unsafe.Sizeof([]float64(nil)))
			for _, r := range md.Ref {
				total += cap(r) * 8
			}
		}
	}
	return total
}
