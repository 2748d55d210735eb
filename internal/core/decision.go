package core

import (
	"eddie/internal/obs"
	"eddie/internal/stats"
)

// evalResult is the outcome of testing a monitored group against a region
// model.
type evalResult struct {
	// rejected is true when no training mode accepts the group.
	rejected bool
	// bestMode is the index (into rm.Modes) of the best-matching mode.
	bestMode int
	// bestRejFrac is the fraction of rank tests that rejected for the
	// best mode: 0 = perfect match, 1 = nothing matches.
	bestRejFrac float64
	// countOut reports that the peak-count bounds test failed (which
	// rejects regardless of modes).
	countOut bool
}

// provCapture collects per-rank K-S evidence while evalGroups scans the
// training modes: tmp holds the mode currently being tested, best the
// best mode seen so far. Both reuse their backing arrays, so capture
// allocates nothing once they have grown to the widest region's rank
// count; nil skips the copying (successor probes keep no evidence).
type provCapture struct {
	tmp  []obs.RankKS
	best []obs.RankKS
}

// groupSet is one monitored window group readied for the region decision:
// ranks[k] holds the rank-k peak frequencies of the group's windows,
// counts the per-window peak counts and energies the per-window AC
// energies (either may be empty to skip its bounds test). evalGroups
// requires every slice sorted ascending — the sort-once representation:
// each group is sorted exactly once when it is (re)built or slid forward,
// and then re-tested unchanged against every training mode of every
// candidate region with the zero-copy presorted K-S kernel.
type groupSet struct {
	ranks    [][]float64
	counts   []float64
	energies []float64
}

// reset empties the set's slices, keeping their backing arrays.
func (g *groupSet) reset() {
	g.counts = g.counts[:0]
	g.energies = g.energies[:0]
	for k := range g.ranks {
		g.ranks[k] = g.ranks[k][:0]
	}
}

// sortAll sorts every slice ascending.
func (g *groupSet) sortAll() {
	for k := range g.ranks {
		stats.Sort(g.ranks[k])
	}
	stats.Sort(g.counts)
	stats.Sort(g.energies)
}

// rejectFraction is the one region-acceptance rule: a group is rejected
// when more than this fraction of its peak ranks reject against every
// training mode (see evalGroups). The §4.3 group-size sweep measures its
// false-rejection rates with the same rule the monitor decides with, so
// each region's n is chosen for the test it is monitored with.
const rejectFraction = 0.5

// evalGroups applies the region decision to one monitored group set: the
// group is accepted if its median peak count and median AC energy fall
// inside the reference bounds and at least one training mode's per-rank
// K-S tests accept it (rank rejections <= rejectFraction of the ranks),
// so an accepted group always has bestRejFrac <= rejectFraction. modes
// may be a subset of rm.Modes (leave-one-out during training); startMode
// rotates the scan order so the monitor can re-test its last good mode
// first. g must be sorted (see groupSet). prov, when non-nil, captures
// the best mode's per-rank statistics: the same (D, critical) pairs the
// rejections are decided from, so capture never changes the verdict.
func evalGroups(rm *RegionModel, modes []RegionMode, g *groupSet, cAlpha float64, startMode int, prov *provCapture) evalResult {
	res := evalResult{rejected: true, bestMode: -1, bestRejFrac: 1}
	if prov != nil {
		prov.best = prov.best[:0]
	}
	if len(g.counts) > 0 && rm.Counts.N > 0 {
		lo, hi := rm.CountBounds()
		if med := stats.MedianSorted(g.counts); med < lo || med > hi {
			res.countOut = true
			return res
		}
	}
	if len(g.energies) > 0 && rm.Energies.N > 0 {
		lo, hi := rm.EnergyBounds()
		if med := stats.MedianSorted(g.energies); med < lo || med > hi {
			res.countOut = true
			return res
		}
	}
	if rm.NumPeaks == 0 || len(modes) == 0 {
		// Nothing to test against: treat as accepted (blind region).
		res.rejected = false
		res.bestRejFrac = 0
		return res
	}
	ranks := rm.NumPeaks
	if ranks > len(g.ranks) {
		ranks = len(g.ranks)
	}
	limit := rejectFraction * float64(ranks)
	for i := 0; i < len(modes); i++ {
		mi := (startMode + i) % len(modes)
		mode := &modes[mi]
		rej := 0
		if prov != nil {
			prov.tmp = prov.tmp[:0]
		}
		for k := 0; k < ranks && k < len(mode.Ref); k++ {
			d, crit := stats.KSRejectStatPresorted(mode.Ref[k], g.ranks[k], cAlpha)
			rejected := d > crit
			if prov != nil {
				prov.tmp = append(prov.tmp, obs.RankKS{Rank: k, Stat: d, Crit: crit, Rejected: rejected})
			}
			if rejected {
				rej++
			}
		}
		frac := float64(rej) / float64(ranks)
		if frac < res.bestRejFrac {
			res.bestRejFrac = frac
			res.bestMode = mi
			if prov != nil {
				prov.best = append(prov.best[:0], prov.tmp...)
			}
		}
		if float64(rej) <= limit {
			// An accepting mode always has frac <= rejectFraction while
			// every previously scanned mode had frac > rejectFraction, so
			// the best-mode update above already ran for it.
			res.rejected = false
			return res
		}
	}
	return res
}
