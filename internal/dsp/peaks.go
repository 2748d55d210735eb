package dsp

import "math"

// Peak is one spectral peak extracted from a Short-Term Spectrum.
type Peak struct {
	// Bin is the index of the peak in the one-sided power spectrum.
	Bin int
	// Frequency is the peak position in Hz.
	Frequency float64
	// Power is the total power attributed to the peak (the local maximum
	// bin plus its immediate shoulders).
	Power float64
	// Fraction is Power divided by the frame's total (non-DC) energy.
	Fraction float64
}

// PeakConfig controls spectral peak extraction.
type PeakConfig struct {
	// MinEnergyFraction is the minimum fraction of the frame's total
	// energy a local maximum must carry to count as a peak. The paper
	// defines a peak as a frequency holding at least 1% of the window's
	// signal energy.
	MinEnergyFraction float64
	// MinBin excludes bins below this index (DC and near-DC leakage).
	// If zero, bin 1 is the first candidate (DC itself is always skipped).
	MinBin int
}

// DefaultPeakConfig mirrors the paper: peaks are frequencies holding >=1%
// of the window's energy.
func DefaultPeakConfig() PeakConfig {
	return PeakConfig{MinEnergyFraction: 0.01}
}

// FindPeaks extracts the spectral peaks of one STFT frame, strongest first.
// binHz converts a bin index to a frequency; STFTConfig.BinFrequency is the
// usual choice.
func FindPeaks(frame *Frame, cfg PeakConfig, binHz func(int) float64) []Peak {
	peaks, _ := FindPeaksInto(nil, frame, cfg, binHz)
	return peaks
}

// FindPeaksInto is FindPeaks appending into dst's backing array (pass
// dst[:0] of a reused scratch slice): the streaming detector extracts
// peaks every hop, and per-window result allocations would dominate its
// steady-state profile. The returned ordering is identical to
// FindPeaks: the comparison (power descending, bin ascending) is a
// total order, so every correct sort produces the same sequence.
// total is the band energy the fractions are taken of: the sum, in bin
// order, of the bins from the first candidate (MinBin, at least 1) up.
func FindPeaksInto(dst []Peak, frame *Frame, cfg PeakConfig, binHz func(int) float64) (peaks []Peak, total float64) {
	minBin := cfg.MinBin
	if minBin < 1 {
		minBin = 1
	}
	p := frame.Power
	// Normalize by the energy of the candidate band only. Bins below
	// MinBin hold residual DC and drift leakage whose level depends on
	// unrelated parts of the signal (e.g. a high-power episode elsewhere
	// in the run shifts the global mean); letting them into the
	// denominator would suppress legitimate peaks.
	for i := minBin; i < len(p); i++ {
		total += p[i]
	}
	peaks = dst[:0]
	last := len(p) - 1
	if total <= 0 || minBin > last {
		return peaks, total
	}
	// A bin is a local maximum unless it is below its left neighbour
	// or at most its right one; the last bin's right neighbour is
	// -Inf. Its power takes in the shoulders — a sinusoid windowed by
	// a Hann taper spreads across ~3 bins — except the left one of the
	// first candidate bin. The first and last candidates are peeled
	// off so the interior loop has no edge tests. The comparisons keep
	// their negated form so NaN powers fare as they always have.
	keep := func(i int, power float64) {
		if frac := power / total; !(frac < cfg.MinEnergyFraction) {
			peaks = append(peaks, Peak{Bin: i, Frequency: binHz(i), Power: power, Fraction: frac})
		}
	}
	if minBin == last {
		if c := p[last]; !(c < p[last-1] || c <= math.Inf(-1)) {
			keep(last, c)
		}
		sortPeaks(peaks)
		return peaks, total
	}
	if c := p[minBin]; !(c < p[minBin-1] || c <= p[minBin+1]) {
		keep(minBin, c+p[minBin+1])
	}
	for i := minBin + 1; i < last; i++ {
		c := p[i]
		if c < p[i-1] || c <= p[i+1] {
			continue
		}
		keep(i, c+p[i-1]+p[i+1])
	}
	if c := p[last]; !(c < p[last-1] || c <= math.Inf(-1)) {
		keep(last, c+p[last-1])
	}
	sortPeaks(peaks)
	return peaks, total
}

// sortPeaks orders peaks by power descending, breaking ties by bin
// ascending — the same total order sort.Slice used to apply, without
// the per-call closure and reflection swapper. Peak counts are small
// (the 1%-of-energy rule admits at most 100 peaks), so insertion sort
// is both allocation-free and fast.
func sortPeaks(peaks []Peak) {
	for i := 1; i < len(peaks); i++ {
		v := peaks[i]
		j := i - 1
		for j >= 0 && (peaks[j].Power < v.Power ||
			(peaks[j].Power == v.Power && peaks[j].Bin > v.Bin)) {
			peaks[j+1] = peaks[j]
			j--
		}
		peaks[j+1] = v
	}
}

// InterpolatePeakFrequency refines a peak position by parabolic
// interpolation over the log-power of the peak bin and its neighbours.
// It returns the refined frequency; if interpolation is impossible (edge
// bins or non-positive powers) the bin-center frequency is returned.
func InterpolatePeakFrequency(frame *Frame, bin int, binWidthHz float64) float64 {
	p := frame.Power
	center := float64(bin) * binWidthHz
	if bin <= 0 || bin+1 >= len(p) {
		return center
	}
	a, b, c := p[bin-1], p[bin], p[bin+1]
	if a <= 0 || b <= 0 || c <= 0 {
		return center
	}
	la, lb, lc := math.Log(a), math.Log(b), math.Log(c)
	den := la - 2*lb + lc
	if den == 0 {
		return center
	}
	delta := 0.5 * (la - lc) / den
	if delta < -0.5 {
		delta = -0.5
	} else if delta > 0.5 {
		delta = 0.5
	}
	return (float64(bin) + delta) * binWidthHz
}

// DB converts a power ratio to decibels. Non-positive inputs map to -inf.
func DB(power float64) float64 {
	if power <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(power)
}
