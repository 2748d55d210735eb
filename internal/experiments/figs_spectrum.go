package experiments

import (
	"io"
	"math"
	"sort"

	"eddie/internal/cfg"
	"eddie/internal/dsp"
	"eddie/internal/emsim"
	"eddie/internal/pipeline"
	"eddie/internal/stats"
)

// Fig1Peak is one labeled spectral line of the Fig 1 reproduction.
type Fig1Peak struct {
	FreqHz   float64
	DB       float64
	Label    string
	OffsetHz float64 // distance from the carrier (0 for the carrier)
}

// Fig1 reproduces "Figure 1: Spectrum of an AM modulated loop activity":
// the power trace of one loop region amplitude-modulates a carrier; the
// spectrum shows the carrier line plus sidebands at ±1/T where T is the
// loop's per-iteration time.
func Fig1(e *Env, w io.Writer) ([]Fig1Peak, error) {
	t, err := e.train("bitcount", e.Sim, 2)
	if err != nil {
		return nil, err
	}
	run, err := pipeline.CollectRun(t.w, t.machine, e.Sim, 0, nil)
	if err != nil {
		return nil, err
	}
	// Slice out the samples of the first loop region (sharp peaks).
	var seg *segRange
	period := int64(e.Sim.Sim.SamplePeriod)
	for _, s := range run.Sim.Segments {
		if s.Region == t.machine.LoopRegionOf(0) {
			seg = &segRange{int(s.StartCycle / period), int(s.EndCycle / period)}
			break
		}
	}
	if seg == nil {
		return nil, errNoRegion
	}
	power := run.Sim.Power[seg.lo:seg.hi]
	fs := e.Sim.Sim.SampleRate()
	carrier := fs / 4
	pass := emsim.SynthesizeAM(power, carrier, fs, 0.5)
	// Whole-segment spectrum, trimmed to a power of two for speed.
	n := 1 << 14
	if n > len(pass) {
		n = dsp.NextPow2(len(pass)) / 2
	}
	spec := dsp.PowerSpectrum(pass[:n])
	binHz := fs / float64(n)

	// Identify the carrier and the strongest sidebands.
	type line struct {
		bin int
		p   float64
	}
	var lines []line
	for i := 2; i+1 < len(spec); i++ {
		if spec[i] > spec[i-1] && spec[i] >= spec[i+1] {
			lines = append(lines, line{i, spec[i]})
		}
	}
	sort.Slice(lines, func(a, b int) bool { return lines[a].p > lines[b].p })
	if len(lines) > 7 {
		lines = lines[:7]
	}
	carrierBin := int(math.Round(carrier / binHz))
	var peaks []Fig1Peak
	for _, l := range lines {
		f := float64(l.bin) * binHz
		label := "sideband"
		if abs(l.bin-carrierBin) <= 1 {
			label = "carrier (Fclock)"
		}
		peaks = append(peaks, Fig1Peak{
			FreqHz:   f,
			DB:       dsp.DB(l.p),
			Label:    label,
			OffsetHz: f - carrier,
		})
	}
	sort.Slice(peaks, func(a, b int) bool { return peaks[a].FreqHz < peaks[b].FreqHz })

	fprintf(w, "Fig 1: spectrum of AM-modulated loop activity (carrier %.3f MHz)\n", carrier/1e6)
	fprintf(w, "%-12s %-10s %-18s %s\n", "Freq(MHz)", "dB", "Offset(kHz)", "Line")
	for _, p := range peaks {
		fprintf(w, "%-12.4f %-10.1f %-18.1f %s\n", p.FreqHz/1e6, p.DB, p.OffsetHz/1e3, p.Label)
	}
	// Sanity note: sidebands should be symmetric around the carrier.
	fprintf(w, "(loop per-iteration frequency f = sideband offset; peaks at Fclock ± f)\n")
	return peaks, nil
}

type segRange struct{ lo, hi int }

type noRegionError struct{}

func (noRegionError) Error() string { return "experiments: region not found in run segments" }

var errNoRegion = noRegionError{}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Fig2Bin is one histogram bin of the Fig 2 reproduction.
type Fig2Bin struct {
	FreqHz    float64
	Empirical float64 // empirical probability density
	BiNormal  float64 // fitted two-component Gaussian density
}

// Fig2Result carries the Fig 2 series plus the fit mismatch.
type Fig2Result struct {
	Bins []Fig2Bin
	// FitKS is the K-S distance between the empirical distribution and
	// the fitted bi-normal — the paper's argument for nonparametric
	// tests: even the best bi-normal fit mismatches the real (multi-
	// modal) peak-frequency distribution, which would cause parametric
	// false positives/negatives.
	FitKS float64
}

// Fig2 reproduces "Figure 2: Normal vs Malicious activity" — the
// distribution of a loop's strongest-peak frequency is multi-modal and
// poorly fitted by parametric families.
func Fig2(e *Env, w io.Writer) (*Fig2Result, error) {
	t, err := e.train("susan", e.Sim, e.TrainRunsSim)
	if err != nil {
		return nil, err
	}
	// Use the first modeled loop region's pooled rank-0 reference.
	refs, err := e.pooledRefs(t, e.Sim, e.TrainRunsSim)
	if err != nil {
		return nil, err
	}
	var sample []float64
	for _, id := range t.model.RegionIDs() {
		rm := t.model.Regions[id]
		if t.machine.Region(id).Kind == cfg.LoopRegion && !rm.Blind() {
			sample = refs[id][0]
			break
		}
	}
	if len(sample) == 0 {
		return nil, errNoRegion
	}
	lo, hi := stats.MinMax(sample)
	span := hi - lo
	if span == 0 {
		span = 1
	}
	lo -= 0.05 * span
	hi += 0.05 * span
	const nbins = 36
	counts := stats.Histogram(sample, lo, hi, nbins)
	fit := stats.FitBiNormal(sample, 80)
	binW := (hi - lo) / nbins

	res := &Fig2Result{}
	for i, c := range counts {
		center := lo + (float64(i)+0.5)*binW
		res.Bins = append(res.Bins, Fig2Bin{
			FreqHz:    center,
			Empirical: float64(c) / (float64(len(sample)) * binW),
			BiNormal:  fit.PDF(center),
		})
	}
	// K-S distance of the fit.
	var d float64
	ecdf, err := stats.NewECDF(sample)
	if err != nil {
		return nil, err
	}
	for _, v := range ecdf.Sorted() {
		if diff := math.Abs(ecdf.At(v) - fit.CDF(v)); diff > d {
			d = diff
		}
	}
	res.FitKS = d

	fprintf(w, "Fig 2: strongest-peak frequency distribution vs best bi-normal fit\n")
	fprintf(w, "%-12s %-14s %-14s\n", "Freq(kHz)", "empirical", "bi-normal fit")
	for _, b := range res.Bins {
		fprintf(w, "%-12.1f %-14.3g %-14.3g\n", b.FreqHz/1e3, b.Empirical, b.BiNormal)
	}
	fprintf(w, "K-S distance of bi-normal fit: %.3f (parametric tests would mis-estimate tails)\n", res.FitKS)
	return res, nil
}
