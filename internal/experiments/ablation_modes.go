package experiments

import (
	"io"

	"eddie/internal/core"
	"eddie/internal/inject"
	"eddie/internal/par"
	"eddie/internal/pipeline"
)

// AblationModesResult compares per-run reference modes (this
// implementation's design, DESIGN.md §6.2) against a single pooled
// reference distribution (the naive reading of the paper).
type AblationModesResult struct {
	ModesFPPct   float64
	PooledFPPct  float64
	ModesTPRPct  float64
	PooledTPRPct float64
}

// AblationModes re-scores the same clean and injected runs with both model
// variants. Pooling is applied by collapsing each region's per-run modes
// into one mode built from the pooled reference.
func AblationModes(e *Env, w io.Writer) (*AblationModesResult, error) {
	t, err := e.train("bitcount", e.Sim, e.TrainRunsSim)
	if err != nil {
		return nil, err
	}
	refs, err := e.pooledRefs(t, e.Sim, e.TrainRunsSim)
	if err != nil {
		return nil, err
	}
	pooled := pooledModel(t.model, refs)

	scoreBoth := func(runIdx int, inj inject.Injector) (*core.Metrics, *core.Metrics, error) {
		run, err := pipeline.CollectRun(t.w, t.machine, e.Sim, runIdx, inj)
		if err != nil {
			return nil, nil, err
		}
		mm, err := pipeline.MonitorAndScore(t.model, e.Sim, run.STS, e.MonitorCfg)
		if err != nil {
			return nil, nil, err
		}
		pm, err := pipeline.MonitorAndScore(pooled, e.Sim, run.STS, e.MonitorCfg)
		if err != nil {
			return nil, nil, err
		}
		return mm, pm, nil
	}

	type pair struct{ cm, cp, im, ip *core.Metrics }
	pairs := make([]pair, e.MonRunsSim)
	err = par.Do(e.MonRunsSim, 0, func(i int) error {
		cm, cp, err := scoreBoth(monitorRunBase+i*5, nil)
		if err != nil {
			return err
		}
		inj := &inject.InLoop{Header: t.nestHeader(0), Instrs: 8, MemOps: 4, Contamination: 1, Seed: int64(i)}
		im, ip, err := scoreBoth(injectionRunBase+i*5, inj)
		if err != nil {
			return err
		}
		pairs[i] = pair{cm: cm, cp: cp, im: im, ip: ip}
		return nil
	})
	if err != nil {
		return nil, err
	}
	aggModes, aggPooled := &core.Metrics{}, &core.Metrics{}
	for _, p := range pairs {
		aggModes.Merge(p.cm)
		aggPooled.Merge(p.cp)
		aggModes.Merge(p.im)
		aggPooled.Merge(p.ip)
	}
	res := &AblationModesResult{
		ModesFPPct:   aggModes.FalsePositivePct(),
		PooledFPPct:  aggPooled.FalsePositivePct(),
		ModesTPRPct:  aggModes.TruePositivePct(),
		PooledTPRPct: aggPooled.TruePositivePct(),
	}
	fprintf(w, "Ablation: per-run reference modes vs one pooled reference distribution\n")
	fprintf(w, "  %-22s FP %6.2f%%   TPR %6.1f%%\n", "per-run modes", res.ModesFPPct, res.ModesTPRPct)
	fprintf(w, "  %-22s FP %6.2f%%   TPR %6.1f%%\n", "pooled reference", res.PooledFPPct, res.PooledTPRPct)
	fprintf(w, "  (within one run STSs are tightly clustered; against a pooled cross-run\n")
	fprintf(w, "   mixture such a group is rejected by construction — see DESIGN.md §6.2)\n")
	return res, nil
}

// pooledModel returns a copy of the model whose regions each have exactly
// one mode: the pooled cross-run reference refs[id].
func pooledModel(m *core.Model, refs map[cfgRegionID][][]float64) *core.Model {
	out := &core.Model{
		ProgramName:  m.ProgramName + "-pooled",
		Machine:      m.Machine,
		Regions:      map[cfgRegionID]*core.RegionModel{},
		Alpha:        m.Alpha,
		MaxGroupSize: m.MaxGroupSize,
	}
	for id, rm := range m.Regions {
		cp := *rm
		cp.Modes = []core.RegionMode{{Run: -1, Ref: refs[id]}}
		out.Regions[id] = &cp
	}
	return out
}
