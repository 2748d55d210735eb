package core

import (
	"fmt"
	"sort"

	"eddie/internal/cfg"
	"eddie/internal/par"
	"eddie/internal/stats"
)

// The training operating point: the §4.3 group-size selection and the
// region modelling limits. The sweep decides with the monitor's rule,
// rejectFraction in decision.go.
const (
	// maxPeakRanks caps how many peak ranks are tracked per region.
	maxPeakRanks = 10
	// minTrainWindows is the minimum number of training STSs needed to
	// model a region; regions with fewer are dropped (and later treated
	// like unmodeled regions).
	minTrainWindows = 24
	// frrTolerance is how far above the observed minimum false-rejection
	// rate a candidate n may be and still qualify as "minimum"; it makes
	// the smallest-n selection robust to sampling noise.
	frrTolerance = 0.01
	// powerTargetD is the distribution shift (K-S statistic) the test
	// must be able to detect when the region's own shift distance is
	// unavailable: n is floored so that the critical value
	// D_{m,n,alpha} falls below this target. Without the floor, tiny n
	// trivially achieves zero false rejections — the left edge of the
	// paper's Fig 3 curves — but has no detection power at all.
	powerTargetD = 0.35
	// shiftFraction is the relative peak-frequency shift the region's
	// test should be able to detect (a small in-loop injection changes
	// the loop period by a few percent). The per-region power target is
	// the K-S distance that such a shift produces on the region's own
	// reference distributions: sharp regions yield distances near 1
	// (small n suffices — short latency), diffuse regions yield small
	// distances (large n — long latency), reproducing the per-region
	// latency spread of the paper's Figs 3/4/6.
	shiftFraction = 0.03
)

// groupSizeGrid is the candidate grid for the per-region K-S group size
// n, in ascending order. Training picks, per region, the smallest
// candidate achieving the minimum false-rejection rate observed across
// the grid (§4.3).
var groupSizeGrid = [...]int{4, 6, 8, 12, 16, 24, 32, 48, 64, 96}

// TrainConfig controls model training.
type TrainConfig struct {
	// Alpha is the K-S significance level (1 - confidence). The paper
	// uses the 99% confidence level, i.e. 0.01.
	Alpha float64
	// Workers bounds the worker pool that builds region models (reference
	// sets, modes and the leave-one-out group-size sweep run per region,
	// fanned out on internal/par). Zero selects the process-wide default
	// (par.SetParallelism / EDDIE_PARALLELISM / GOMAXPROCS). Every worker
	// count produces the byte-identical Model: regions are independent
	// and results are assembled in region-id order.
	Workers int
}

// DefaultTrainConfig returns the paper-equivalent training configuration.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Alpha: 0.01}
}

// Validate checks the training configuration.
func (tc TrainConfig) Validate() error {
	if tc.Alpha <= 0 || tc.Alpha >= 1 {
		return fmt.Errorf("core: alpha must be in (0,1), got %g", tc.Alpha)
	}
	return nil
}

// Train builds an EDDIE model from injection-free training runs. Each
// element of runs is the STS sequence of one run (in time order), labeled
// with ground-truth regions by package trace — the stand-in for the
// paper's compile-time loop instrumentation.
func Train(programName string, machine *cfg.Machine, runs [][]STS, tc TrainConfig) (*Model, error) {
	if err := tc.Validate(); err != nil {
		return nil, err
	}
	if machine == nil {
		return nil, fmt.Errorf("core: nil region machine")
	}
	// Group windows per region, preserving per-run temporal order (the
	// FRR sweep needs consecutive windows of the same region visit) and
	// per-run identity (each run contributes one reference mode).
	perRegion := map[cfg.RegionID]*regionData{}
	for runIdx, run := range runs {
		var curRegion cfg.RegionID = cfg.NoRegion
		var cur []STS
		flush := func() {
			if len(cur) > 0 && curRegion != cfg.NoRegion {
				rd := perRegion[curRegion]
				if rd == nil {
					rd = &regionData{}
					perRegion[curRegion] = rd
				}
				rd.seqs = append(rd.seqs, taggedSeq{run: runIdx, sts: cur})
				rd.all = append(rd.all, cur...)
			}
			cur = nil
		}
		for _, sts := range run {
			if sts.Region != curRegion {
				flush()
				curRegion = sts.Region
			}
			cur = append(cur, sts)
		}
		flush()
	}

	model := &Model{
		ProgramName: programName,
		Machine:     machine,
		Regions:     map[cfg.RegionID]*RegionModel{},
		Alpha:       tc.Alpha,
	}
	cAlpha := stats.KolmogorovInverse(1 - tc.Alpha)

	ids := make([]cfg.RegionID, 0, len(perRegion))
	for id := range perRegion {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	// Build the per-region models concurrently: each region's reference
	// sets, modes and leave-one-out group-size sweep depend only on that
	// region's training windows, so the fan-out writes into index-
	// addressed slots and the id-ordered assembly below yields the
	// byte-identical Model at any worker count (the same determinism
	// contract as pipeline.CollectRuns).
	built := make([]*RegionModel, len(ids))
	if err := par.Do(len(ids), tc.Workers, func(i int) error {
		rd := perRegion[ids[i]]
		if len(rd.all) < minTrainWindows {
			return nil
		}
		rm := buildRegionModel(ids[i], machine, rd.all)
		buildModes(rm, rd.seqs)
		rm.GroupSize = selectGroupSize(rm, rd.seqs, cAlpha)
		built[i] = rm
		return nil
	}); err != nil {
		return nil, err
	}
	for i, id := range ids {
		rm := built[i]
		if rm == nil {
			continue
		}
		if rm.GroupSize > model.MaxGroupSize {
			model.MaxGroupSize = rm.GroupSize
		}
		model.Regions[id] = rm
	}
	if len(model.Regions) == 0 {
		return nil, fmt.Errorf("core: training produced no region models for %q (no region had >= %d windows)", programName, minTrainWindows)
	}
	return model, nil
}

// taggedSeq is one contiguous same-region window stretch of one run.
type taggedSeq struct {
	run int
	sts []STS
}

// regionData aggregates one region's training windows.
type regionData struct {
	seqs []taggedSeq
	all  []STS
}

// buildRegionModel derives the peak-rank count and reference sets of one
// region from its training windows.
func buildRegionModel(id cfg.RegionID, machine *cfg.Machine, windows []STS) *RegionModel {
	// NumPeaks: the median peak count of the region's STSs, capped.
	counts := make([]int, len(windows))
	for i := range windows {
		counts[i] = len(windows[i].PeakFreqs)
	}
	sort.Ints(counts)
	numPeaks := counts[len(counts)/2]
	if numPeaks > maxPeakRanks {
		numPeaks = maxPeakRanks
	}
	label := fmt.Sprintf("R%d", id)
	if r := machine.Region(id); r != nil {
		label = r.Label
	}
	rm := &RegionModel{
		Region:       id,
		Label:        label,
		NumPeaks:     numPeaks,
		TrainWindows: len(windows),
	}
	rm.Ref = rankRefs(windows, numPeaks)
	rm.CountRef = make([]float64, len(windows))
	rm.EnergyRef = make([]float64, len(windows))
	for i := range windows {
		rm.CountRef[i] = float64(len(windows[i].PeakFreqs))
		rm.EnergyRef[i] = windows[i].Energy
	}
	sort.Float64s(rm.CountRef)
	sort.Float64s(rm.EnergyRef)
	return rm
}

// buildModes groups a region's windows per training run into reference
// modes (see RegionModel.Modes). Runs with fewer than minModeWindows
// windows in the region are folded into the nearest-sized mode-less pool;
// in practice they are rare and simply skipped.
const minModeWindows = 6

func buildModes(rm *RegionModel, seqs []taggedSeq) {
	byRun := map[int][]STS{}
	var runOrder []int
	for _, s := range seqs {
		if _, ok := byRun[s.run]; !ok {
			runOrder = append(runOrder, s.run)
		}
		byRun[s.run] = append(byRun[s.run], s.sts...)
	}
	sort.Ints(runOrder)
	for _, run := range runOrder {
		windows := byRun[run]
		if len(windows) < minModeWindows {
			continue
		}
		rm.Modes = append(rm.Modes, RegionMode{Run: run, Ref: rankRefs(windows, rm.NumPeaks)})
	}
	if len(rm.Modes) == 0 && len(byRun) > 0 {
		// Every run's visit was too short for a per-run mode (typical for
		// brief transition regions): pool all windows into one mode so the
		// region still has a testable reference rather than silently
		// accepting everything.
		var all []STS
		for _, run := range runOrder {
			all = append(all, byRun[run]...)
		}
		rm.Modes = append(rm.Modes, RegionMode{Run: -1, Ref: rankRefs(all, rm.NumPeaks)})
	}
}

// rankRefs builds the sorted per-rank reference samples of a window set:
// row k holds every window's rank-k peak frequency (zero past a window's
// last peak), sorted ascending.
func rankRefs(windows []STS, ranks int) [][]float64 {
	refs := make([][]float64, ranks)
	for k := range refs {
		ref := make([]float64, len(windows))
		for i := range windows {
			ref[i] = windows[i].PeakAt(k)
		}
		sort.Float64s(ref)
		refs[k] = ref
	}
	return refs
}

// selectGroupSize implements §4.3: apply the K-S test to training-time
// STSs with each candidate n and pick the smallest n whose false-rejection
// rate matches the minimum observed across the grid.
func selectGroupSize(rm *RegionModel, seqs []taggedSeq, cAlpha float64) int {
	minCandidate := groupSizeGrid[0]
	if rm.Blind() {
		return minCandidate
	}
	if len(seqs) == 0 {
		// A region can carry modes but no tagged sequences (e.g. a model
		// assembled from pooled windows); there is nothing to sweep, and
		// the visit-length median below would index an empty slice.
		return minCandidate
	}

	// Cap n at the region's typical contiguous visit length: a group
	// larger than one visit necessarily mixes regions and would reject
	// permanently at every border.
	visitLens := make([]int, len(seqs))
	for i, s := range seqs {
		visitLens[i] = len(s.sts)
	}
	sort.Ints(visitLens)
	capN := visitLens[len(visitLens)/2]
	if capN < minCandidate {
		capN = minCandidate
	}

	// Floor n so the K-S critical value can actually detect the region's
	// shift distance: c(alpha)*sqrt((m+n)/(m*n)) <= D* solved for n, with
	// m the typical per-mode reference size (each monitored group is
	// tested against individual training-run modes, not the pooled
	// reference).
	modeSizes := make([]int, 0, len(rm.Modes))
	for _, mode := range rm.Modes {
		if len(mode.Ref) > 0 {
			modeSizes = append(modeSizes, len(mode.Ref[0]))
		}
	}
	m := float64(rm.TrainWindows)
	if len(modeSizes) > 0 {
		sort.Ints(modeSizes)
		m = float64(modeSizes[len(modeSizes)/2])
	}
	d := powerTargetD
	if ds := detectableShiftD(rm, shiftFraction); ds > 0 {
		// Clamp: even razor-sharp references keep a safety margin
		// (d <= 0.6 -> n >= ~8) and hopelessly diffuse ones don't
		// drive n to absurd sizes on their own (the visit-length
		// cap below has the final word anyway).
		if ds > 0.6 {
			ds = 0.6
		}
		if ds < 0.15 {
			ds = 0.15
		}
		d = ds
	}
	var floor int
	den := d*d - cAlpha*cAlpha/m
	if den <= 0 {
		floor = capN // unreachable power; take what the region allows
	} else {
		floor = int(cAlpha*cAlpha/den) + 1
	}
	if floor > capN {
		floor = capN
	}

	type cand struct {
		n   int
		frr float64
	}
	var cands []cand
	maxN := groupSizeGrid[len(groupSizeGrid)-1] + capN
	g := newGroupSet(rm.NumPeaks, maxN)
	// Leave-one-out mode sets, cached per run.
	looCache := map[int][]RegionMode{}
	looModes := func(run int) []RegionMode {
		if m, ok := looCache[run]; ok {
			return m
		}
		var out []RegionMode
		for _, mode := range rm.Modes {
			if mode.Run != run {
				out = append(out, mode)
			}
		}
		if len(out) == 0 {
			out = rm.Modes // single-run training: no LOO possible
		}
		looCache[run] = out
		return out
	}
	for _, n := range groupSizeGrid {
		if n < floor || n > capN {
			continue
		}
		tested, rejected := 0, 0
		for _, seq := range seqs {
			if len(seq.sts) < n {
				continue
			}
			modes := looModes(seq.run)
			stride := n / 2
			if stride < 1 {
				stride = 1
			}
			for start := 0; start+n <= len(seq.sts); start += stride {
				tested++
				g.reset()
				for i := start; i < start+n; i++ {
					g.counts = append(g.counts, float64(len(seq.sts[i].PeakFreqs)))
					g.energies = append(g.energies, seq.sts[i].Energy)
					for k := range g.ranks {
						g.ranks[k] = append(g.ranks[k], seq.sts[i].PeakAt(k))
					}
				}
				// Sort each candidate group once here instead of once per
				// training mode inside the K-S tests — the same sort-once
				// kernel the monitor uses.
				g.sortAll()
				// Same decision rule as the monitor, against the modes of
				// the *other* runs (leave-one-out), so the sweep measures
				// generalization rather than self-match.
				res := evalGroups(rm, modes, &g, cAlpha, 0, nil)
				if res.rejected {
					rejected++
				}
			}
		}
		if tested == 0 {
			continue
		}
		cands = append(cands, cand{n: n, frr: float64(rejected) / float64(tested)})
	}
	if len(cands) == 0 {
		// No grid candidate fits [floor, capN]; use the floor directly
		// (GroupSize is not restricted to the grid).
		return floor
	}
	minFRR := cands[0].frr
	for _, c := range cands[1:] {
		if c.frr < minFRR {
			minFRR = c.frr
		}
	}
	best := cands[len(cands)-1].n
	for _, c := range cands {
		if c.frr <= minFRR+frrTolerance {
			best = c.n
			break // candidates are in ascending n order
		}
	}
	return best
}

// detectableShiftD returns the median (over peak ranks) K-S distance
// between each pooled reference distribution and a copy of itself with all
// frequencies scaled by (1+gamma) — the spectral signature of an in-loop
// injection that lengthens the loop period by ~gamma. Sharp references
// yield values near 1; diffuse ones small values.
func detectableShiftD(rm *RegionModel, gamma float64) float64 {
	if rm.NumPeaks == 0 {
		return 0
	}
	var ds []float64
	for k := 0; k < rm.NumPeaks; k++ {
		ref := rm.Ref[k]
		if len(ref) == 0 {
			continue
		}
		shifted := make([]float64, len(ref))
		for i, v := range ref {
			shifted[i] = v / (1 + gamma)
		}
		// ref is sorted and dividing by the positive 1+gamma preserves
		// order, so both samples are already ascending: the presorted
		// statistic skips KSStatistic's copy-and-sort and is bit-identical
		// (sorting a sorted slice is the identity).
		ds = append(ds, stats.KSStatisticPresorted(ref, shifted))
	}
	if len(ds) == 0 {
		return 0
	}
	sort.Float64s(ds)
	return ds[len(ds)/2]
}
