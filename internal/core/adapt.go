package core

import (
	"fmt"

	"eddie/internal/cfg"
	"eddie/internal/stats"
)

// Default adaptation parameters. The rate and step bound are deliberately
// conservative: slow channel drift (gain drift, DC wander, clock skew)
// moves the spectra by a tiny fraction per window, so a small per-update
// pull is enough to track it, while a short anomalous episode that
// somehow survives every guard still cannot move the reference far
// before rejections cut the clean streak.
const (
	DefaultAdaptRate           = 0.05
	DefaultAdaptMinCleanStreak = 12
)

// adaptMaxStepFrac bounds a single update's per-value shift to this
// fraction of the reference span (the contamination backstop; the span
// is floored at adaptRelSpanFloor of the reference's position so
// near-point-mass ranks can track at all).
const adaptMaxStepFrac = 0.05

// adaptMaxKSDistance gates each peak rank individually: a rank whose
// monitored sample sits further than this K-S distance from its current
// reference is not blended (a group can be "clean" at significance alpha
// yet still be an implausible teacher for the ranks it disagrees on),
// unless the rank's shift is relatively tiny (see adaptRelSpanFloor).
const adaptMaxKSDistance = 0.35

// adaptMinGroup is the smallest accepted monitored group adaptation will
// learn from. Regions dwell for only a few dozen windows per visit —
// often fewer than their trained group size — so insisting on a full
// trained group would starve adaptation in exactly the short-dwell
// regions that need it; below 8 windows the group's empirical quantiles
// are too coarse to be a teacher.
const adaptMinGroup = 8

// adaptRelSpanFloor widens the blend's step-bound span to at least this
// fraction of the reference's median value, and doubles as the "relative
// nearness" pursuit gate. Some rank references are near point masses — a
// span of tens of Hz at MHz positions — so a purely span-relative step
// bound could never track ppm-scale clock skew (hundreds of spans per
// hour), and the K-S distance to such a rank saturates at 1 the moment
// the ladder moves at all. A rank whose observed median sits within this
// relative distance of its reference is channel drift by construction:
// code injection retimes loops at percent scale, far above this floor.
const adaptRelSpanFloor = 0.005

// AdaptConfig controls the drift-adaptive reference layer: when enabled,
// the monitor maintains a per-region shadow of the trained reference
// distributions as incrementally updated sorted sketches, folding in
// monitored groups only from windows it judged clean. Three stacked
// guards keep injected code from poisoning the reference: an update is
// admitted only after MinCleanStreak consecutive clean windows, each
// peak rank is blended only when it agrees with its current reference (a
// K-S distance within adaptMaxKSDistance, or a sub-permille relative
// shift no injection could produce), and even then each reference value
// moves at most adaptMaxStepFrac of its span per update.
//
// The zero value (Enabled false) is the static paper behavior: the
// monitor never touches the model and the decision path is bit-identical
// to a build without this layer.
type AdaptConfig struct {
	// Enabled turns the adaptive layer on. Off by default.
	Enabled bool
	// Rate is the per-update blend fraction: each reference quantile
	// moves this fraction of the way toward the observed group's
	// matching quantile. Must be in (0, 1]; zero means
	// DefaultAdaptRate.
	Rate float64
	// MinCleanStreak is how many consecutive clean windows must
	// accumulate before updates are admitted; any rejection resets the
	// streak. Zero means DefaultAdaptMinCleanStreak.
	MinCleanStreak int
}

// withDefaults fills zero fields and validates ranges.
func (c AdaptConfig) withDefaults() (AdaptConfig, error) {
	if c.Rate == 0 {
		c.Rate = DefaultAdaptRate
	}
	if c.MinCleanStreak == 0 {
		c.MinCleanStreak = DefaultAdaptMinCleanStreak
	}
	if c.Rate < 0 || c.Rate > 1 {
		return c, fmt.Errorf("core: adapt rate %g outside (0, 1]", c.Rate)
	}
	if c.MinCleanStreak < 0 {
		return c, fmt.Errorf("core: negative adapt clean streak %d", c.MinCleanStreak)
	}
	return c, nil
}

// adaptRegion is one region's adaptive shadow: a private copy of the
// trained RegionModel's header whose count and energy summaries, and the
// mode references adaptation has taught, are mutable sketches. The
// shadow — never the shared, interned Model — is what the monitor's
// decision path tests against, so thousands of fleet sessions can adapt
// independently off one trained model.
type adaptRegion struct {
	rm RegionModel
	// drift accumulates the normalized per-update shift of this region's
	// sketches: how far adaptation has pulled the reference from its
	// trained position, in units of (floored) reference spans.
	drift float64
}

// ownRef returns rank k of mode i's references for blending, as the
// shadow's private copy. The mode's first blend deep-copies all its
// ranks into one backing array; until then they alias trained, the
// trained model's references of mode i. A session therefore pays only
// for the modes it taught.
func (ar *adaptRegion) ownRef(trained [][]float64, i, k int) []float64 {
	md := &ar.rm.Modes[i]
	if &md.Ref[0] == &trained[0] {
		total := 0
		for _, r := range trained {
			total += len(r)
		}
		buf := make([]float64, 0, total)
		md.Ref = make([][]float64, len(trained))
		for j, r := range trained {
			off := len(buf)
			buf = append(buf, r...)
			md.Ref[j] = buf[off:len(buf):len(buf)]
		}
	}
	return md.Ref[k]
}

// adaptState is the monitor's adaptation bookkeeping.
type adaptState struct {
	cfg     AdaptConfig
	regions map[cfg.RegionID]*adaptRegion
	// cleanStreak counts consecutive clean tested windows; any rejection
	// resets it. It survives clean region transitions: a border crossing
	// is normal program behavior, not grounds for suspicion, and
	// short-dwell regions would otherwise never accumulate enough trust
	// to learn.
	cleanStreak int
	updates     int64
	drift       float64
}

func newAdaptState(c AdaptConfig) (*adaptState, error) {
	c, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	return &adaptState{cfg: c, regions: map[cfg.RegionID]*adaptRegion{}}, nil
}

// region returns src's adaptive shadow, building it on first use. The
// shadow copies only the header and the slice of mode headers: the
// summaries are values, and the mode references stay shared with the
// trained model until they are first blended (ownRef).
func (a *adaptState) region(src *RegionModel) *adaptRegion {
	ar := a.regions[src.Region]
	if ar != nil {
		return ar
	}
	ar = &adaptRegion{rm: *src}
	ar.rm.Modes = append([]RegionMode(nil), src.Modes...)
	a.regions[src.Region] = ar
	return ar
}

// regionModel resolves the reference model the decision path should test
// region id against: the adaptive shadow when adaptation is on, else the
// trained model. With adaptation off this is a nil check and a map
// lookup — the exact lookup the monitor always did.
func (m *Monitor) regionModel(id cfg.RegionID) *RegionModel {
	rm := m.model.Regions[id]
	if m.adapt == nil || rm == nil || !rm.Testable() {
		return rm
	}
	return &m.adapt.region(rm).rm
}

// adaptObserve runs after every clean region test: it advances the clean
// streak and, when the group is large enough (qualified) and every guard
// passes, folds the accepted monitored group into the current region's
// reference sketches. rm is the region's shadow model (the one the clean
// verdict was computed against) and n the group size just tested, so
// fillGroups(n) is a slot-cache hit for the very group just tested. The
// update costs one K-S statistic and one BlendSorted sweep per rank of
// the accepting mode plus a three-point BlendSummary each for the count
// and energy summaries, and no allocation once the mode has been taught:
// each sweep is linear, and the blended reference is re-sorted only in
// the rare case a sweep left a neighbouring pair out of order. A mode's
// first blend copies its references out of the trained model (ownRef).
func (m *Monitor) adaptObserve(rm *RegionModel, n int, qualified bool) {
	a := m.adapt
	a.cleanStreak++
	if !qualified || a.cleanStreak < a.cfg.MinCleanStreak {
		return
	}
	ar := a.regions[rm.Region]
	if ar == nil || len(ar.rm.Modes) == 0 {
		return
	}
	g := m.fillGroups(n)
	// Teach only the mode that accepted the group: the other training
	// modes describe inputs the stream is not currently executing, and
	// pulling them toward this group would smear distinct modes together.
	mi := m.lastMode[rm.Region] % len(ar.rm.Modes)
	mode := &ar.rm.Modes[mi]
	trained := m.model.Regions[rm.Region].Modes[mi].Ref
	ranks := rm.NumPeaks
	if ranks > len(g.ranks) {
		ranks = len(g.ranks)
	}
	if ranks > len(mode.Ref) {
		ranks = len(mode.Ref)
	}
	// Per-rank distance gate: a clean verdict tolerates up to
	// rejectFraction of the ranks rejecting, and even accepted small
	// groups sit a sizable K-S distance from the pooled reference — so
	// each rank qualifies as a teacher individually. A rank is blended
	// when it agrees with its current reference (D within adaptMaxKSDistance)
	// or when its whole distribution moved by a relative hair's breadth
	// (within adaptRelSpanFloor): near-point-mass ranks saturate D at
	// the slightest clock skew, yet a sub-permille shift is far below
	// the scale any code injection produces. Disagreeing ranks
	// contribute nothing: an injected signature that survives the streak
	// guard still cannot teach the ranks it perturbed.
	var drift float64
	blended := 0
	for k := 0; k < ranks; k++ {
		ref := mode.Ref[k]
		obs := g.ranks[k]
		if len(ref) == 0 || len(obs) == 0 {
			continue
		}
		refMid := stats.MedianSorted(ref)
		if stats.KSStatisticPresorted(ref, obs) > adaptMaxKSDistance {
			obsMid := stats.MedianSorted(obs)
			near := refMid > 0 && obsMid > 0 &&
				obsMid > refMid*(1-adaptRelSpanFloor) && obsMid < refMid*(1+adaptRelSpanFloor)
			if !near {
				continue
			}
		}
		minSpan := 0.0
		if refMid > 0 {
			minSpan = adaptRelSpanFloor * refMid
		}
		drift += stats.BlendSorted(ar.ownRef(trained, mi, k), obs, a.cfg.Rate, adaptMaxStepFrac, minSpan)
		blended++
	}
	if blended == 0 {
		// No rank agreed with its reference: the group is not a
		// plausible teacher at all, so leave the side channels alone too.
		return
	}
	if ar.rm.Counts.N > 0 && len(g.counts) > 0 {
		drift += stats.BlendSummary(&ar.rm.Counts, g.counts, a.cfg.Rate, adaptMaxStepFrac, 0)
		blended++
	}
	if ar.rm.Energies.N > 0 && len(g.energies) > 0 {
		drift += stats.BlendSummary(&ar.rm.Energies, g.energies, a.cfg.Rate, adaptMaxStepFrac, 0)
		blended++
	}
	drift /= float64(blended)
	ar.drift += drift
	a.drift += drift
	a.updates++
	m.mcfg.Stats.AdaptUpdate(rm.Region, ar.drift, a.drift)
}

// AdaptEnabled reports whether the adaptive reference layer is active.
func (m *Monitor) AdaptEnabled() bool { return m.adapt != nil }

// AdaptUpdates returns how many reference updates adaptation has admitted
// so far (0 when disabled). Monotone; pollers diff successive reads.
func (m *Monitor) AdaptUpdates() int64 {
	if m.adapt == nil {
		return 0
	}
	return m.adapt.updates
}

// AdaptDrift returns the cumulative normalized drift distance adaptation
// has moved the references across all regions, in units of (floored)
// reference spans (0 when disabled).
func (m *Monitor) AdaptDrift() float64 {
	if m.adapt == nil {
		return 0
	}
	return m.adapt.drift
}
