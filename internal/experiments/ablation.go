package experiments

import (
	"io"

	"eddie/internal/core"
	"eddie/internal/inject"
	"eddie/internal/par"
	"eddie/internal/pipeline"
	"eddie/internal/stats"
)

// AblationUTestResult compares the K-S test against the Wilcoxon-Mann-
// Whitney U test as EDDIE's group-vs-reference decision (§4.2: the paper
// tried both and kept K-S).
type AblationUTestResult struct {
	KSCleanRejPct   float64
	UCleanRejPct    float64
	ADCleanRejPct   float64
	KSInjectRejPct  float64
	UInjectRejPct   float64
	ADInjectRejPct  float64
	GroupsEvaluated int
}

// AblationUTest measures, on one benchmark, how often each test rejects
// clean groups (false rejections) and injected groups (power), using the
// same per-mode references and group size.
func AblationUTest(e *Env, w io.Writer) (*AblationUTestResult, error) {
	t, err := e.train("bitcount", e.Sim, e.TrainRunsSim)
	if err != nil {
		return nil, err
	}
	region := t.machine.LoopRegionOf(0)
	rm := t.model.Regions[region]
	if rm == nil {
		return nil, errNoRegion
	}
	n := rm.GroupSize
	cAlpha := stats.KolmogorovInverse(1 - t.model.Alpha)

	collect := func(runIdx int, inj inject.Injector) ([][]float64, error) {
		run, err := pipeline.CollectRun(t.w, t.machine, e.Sim, runIdx, inj)
		if err != nil {
			return nil, err
		}
		var seq []core.STS
		for i := range run.STS {
			if run.STS[i].Region == region {
				seq = append(seq, run.STS[i])
			}
		}
		var groups [][]float64 // per group: rank-0 values (one rank suffices for the comparison)
		for start := 0; start+n <= len(seq); start += n {
			g := make([]float64, n)
			for i := 0; i < n; i++ {
				g[i] = seq[start+i].PeakAt(0)
			}
			groups = append(groups, g)
		}
		return groups, nil
	}

	evalAll := func(groups [][]float64) (ksRej, uRej, adRej int, err error) {
		scratch := make([]float64, n)
		for gi, g := range groups {
			// A group is rejected when *no* mode accepts it (same rule as
			// the monitor, restricted to rank 0).
			ksAll, uAll, adAll := true, true, true
			for _, mode := range rm.Modes {
				if d, crit := stats.KSRejectStatSorted(mode.Ref[0], g, scratch, cAlpha); d <= crit {
					ksAll = false
				}
				ures, err := stats.UTest(mode.Ref[0], g, t.model.Alpha)
				if err != nil {
					return 0, 0, 0, err
				}
				if !ures.Reject {
					uAll = false
				}
				if adAll {
					ares, err := stats.ADTest(mode.Ref[0], g, 0.05, 99, int64(gi))
					if err != nil {
						return 0, 0, 0, err
					}
					if !ares.Reject {
						adAll = false
					}
				}
			}
			if ksAll {
				ksRej++
			}
			if uAll {
				uRej++
			}
			if adAll {
				adRej++
			}
		}
		return ksRej, uRej, adRej, nil
	}

	// Collect clean and injected runs in parallel; flatten in run order so
	// the group sequence (and the per-group A-D seeds) match the serial
	// path exactly.
	cleanPer := make([][][]float64, e.MonRunsSim)
	injPer := make([][][]float64, e.MonRunsSim)
	err = par.Do(e.MonRunsSim, 0, func(i int) error {
		g, err := collect(monitorRunBase+i*3, nil)
		if err != nil {
			return err
		}
		cleanPer[i] = g
		inj := &inject.InLoop{Header: t.nestHeader(0), Instrs: 8, MemOps: 4, Contamination: 1, Seed: int64(i)}
		g, err = collect(injectionRunBase+i*3, inj)
		if err != nil {
			return err
		}
		injPer[i] = g
		return nil
	})
	if err != nil {
		return nil, err
	}
	var cleanGroups, injGroups [][]float64
	for i := 0; i < e.MonRunsSim; i++ {
		cleanGroups = append(cleanGroups, cleanPer[i]...)
		injGroups = append(injGroups, injPer[i]...)
	}
	ksC, uC, adC, err := evalAll(cleanGroups)
	if err != nil {
		return nil, err
	}
	ksI, uI, adI, err := evalAll(injGroups)
	if err != nil {
		return nil, err
	}
	pct := func(a, total int) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(a) / float64(total)
	}
	res := &AblationUTestResult{
		KSCleanRejPct:   pct(ksC, len(cleanGroups)),
		UCleanRejPct:    pct(uC, len(cleanGroups)),
		ADCleanRejPct:   pct(adC, len(cleanGroups)),
		KSInjectRejPct:  pct(ksI, len(injGroups)),
		UInjectRejPct:   pct(uI, len(injGroups)),
		ADInjectRejPct:  pct(adI, len(injGroups)),
		GroupsEvaluated: len(cleanGroups) + len(injGroups),
	}
	fprintf(w, "Ablation: alternative group tests (rank-0, n=%d): K-S (paper), Mann-Whitney U, Anderson-Darling\n", n)
	fprintf(w, "  %-18s clean-rejection %6.2f%%   injected-rejection %6.2f%%\n", "K-S", res.KSCleanRejPct, res.KSInjectRejPct)
	fprintf(w, "  %-18s clean-rejection %6.2f%%   injected-rejection %6.2f%%\n", "U-test", res.UCleanRejPct, res.UInjectRejPct)
	fprintf(w, "  %-18s clean-rejection %6.2f%%   injected-rejection %6.2f%%\n", "Anderson-Darling", res.ADCleanRejPct, res.ADInjectRejPct)
	fprintf(w, "  (the paper kept K-S; the U test keys on medians only, A-D weights the tails)\n")
	return res, nil
}

// AblationWindowRow is one STFT window size's outcome.
type AblationWindowRow struct {
	WindowSize int
	FPPct      float64
	TPRPct     float64
}

// AblationWindow sweeps the STFT window size: short windows give more
// STSs per region visit (shorter latency) but coarser frequency
// resolution; long windows the opposite.
func AblationWindow(e *Env, w io.Writer) ([]AblationWindowRow, error) {
	sizes := []int{256, 512, 1024}
	rows := make([]AblationWindowRow, len(sizes))
	err := par.Do(len(sizes), 0, func(si int) error {
		ws := sizes[si]
		c := e.Sim
		c.STFT.WindowSize = ws
		c.STFT.HopSize = ws / 2
		t, err := trainWith(e, "bitcount", c)
		if err != nil {
			return err
		}
		row := AblationWindowRow{WindowSize: ws}
		ms := make([]*core.Metrics, e.MonRunsSim)
		err = par.Do(e.MonRunsSim, 0, func(i int) error {
			m, err := e.score(t, c, monitorRunBase+i*3, nil, e.MonitorCfg)
			if err != nil {
				return err
			}
			ms[i] = m
			return nil
		})
		if err != nil {
			return err
		}
		agg := &core.Metrics{}
		for _, m := range ms {
			agg.Merge(m)
		}
		row.FPPct = agg.FalsePositivePct()
		inj := &inject.InLoop{Header: t.nestHeader(0), Instrs: 8, MemOps: 4, Contamination: 1, Seed: 3}
		m, err := e.score(t, c, injectionRunBase, inj, e.MonitorCfg)
		if err != nil {
			return err
		}
		row.TPRPct = m.TruePositivePct()
		rows[si] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	fprintf(w, "Ablation: STFT window size\n")
	for _, r := range rows {
		fprintf(w, "  window %4d: FP %.2f%%  in-loop TPR %.1f%%\n", r.WindowSize, r.FPPct, r.TPRPct)
	}
	return rows, nil
}

// AblationPeakThresholdRow is one peak-energy threshold's outcome.
type AblationPeakThresholdRow struct {
	Fraction float64
	AvgPeaks float64
	FPPct    float64
	TPRPct   float64
}

// AblationPeakThreshold sweeps the minimum peak-energy fraction (the
// paper's 1%-of-window-energy rule).
func AblationPeakThreshold(e *Env, w io.Writer) ([]AblationPeakThresholdRow, error) {
	fracs := []float64{0.01, 0.02, 0.04, 0.08}
	rows := make([]AblationPeakThresholdRow, len(fracs))
	err := par.Do(len(fracs), 0, func(fi int) error {
		frac := fracs[fi]
		c := e.Sim
		c.Peaks.MinEnergyFraction = frac
		t, err := trainWith(e, "bitcount", c)
		if err != nil {
			return err
		}
		row := AblationPeakThresholdRow{Fraction: frac}
		type runResult struct {
			peaks, windows int
			m              *core.Metrics
		}
		results := make([]runResult, e.MonRunsSim)
		err = par.Do(e.MonRunsSim, 0, func(i int) error {
			run, err := pipeline.CollectRun(t.w, t.machine, c, monitorRunBase+i*3, nil)
			if err != nil {
				return err
			}
			rr := runResult{}
			for j := range run.STS {
				rr.peaks += len(run.STS[j].PeakFreqs)
				rr.windows++
			}
			rr.m, err = pipeline.MonitorAndScore(t.model, c, run.STS, e.MonitorCfg)
			if err != nil {
				return err
			}
			results[i] = rr
			return nil
		})
		if err != nil {
			return err
		}
		var peaks, windows int
		agg := &core.Metrics{}
		for _, rr := range results {
			peaks += rr.peaks
			windows += rr.windows
			agg.Merge(rr.m)
		}
		row.FPPct = agg.FalsePositivePct()
		if windows > 0 {
			row.AvgPeaks = float64(peaks) / float64(windows)
		}
		inj := &inject.InLoop{Header: t.nestHeader(0), Instrs: 8, MemOps: 4, Contamination: 1, Seed: 3}
		m, err := e.score(t, c, injectionRunBase, inj, e.MonitorCfg)
		if err != nil {
			return err
		}
		row.TPRPct = m.TruePositivePct()
		rows[fi] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	fprintf(w, "Ablation: peak energy threshold\n")
	for _, r := range rows {
		fprintf(w, "  fraction %.2f: %.1f peaks/window  FP %.2f%%  in-loop TPR %.1f%%\n",
			r.Fraction, r.AvgPeaks, r.FPPct, r.TPRPct)
	}
	return rows, nil
}

// trainWith trains a workload under an arbitrary pipeline config, sharing
// the environment's model cache.
func trainWith(e *Env, name string, c pipeline.Config) (*trained, error) {
	return e.trainCached(name, c, e.TrainRunsSim, e.Train)
}
