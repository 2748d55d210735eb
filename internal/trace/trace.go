// Package trace aligns the signal domain with the program domain: it
// labels each STFT window with the code region that produced it (ground
// truth from the simulator's region trace) and with whether the window
// overlaps injected execution. Training consumes the region labels — the
// equivalent of the paper's lightweight loop instrumentation — while
// evaluation consumes both.
package trace

import (
	"eddie/internal/cfg"
	"eddie/internal/dsp"
	"eddie/internal/sim"
)

// LabeledFrame is an STFT frame with ground-truth annotations.
type LabeledFrame struct {
	// Frame is the Short-Term Spectrum.
	Frame dsp.Frame
	// Region is the region that dominated the window (the region holding
	// the largest share of the window's cycles), or cfg.NoRegion if the
	// window lies outside the traced execution.
	Region cfg.RegionID
	// Injected reports whether any injected execution fell in the window.
	Injected bool
	// TimeSec is the window start time in seconds.
	TimeSec float64
}

// LabelFrames annotates STFT frames using the simulator's region trace.
// stftCfg must be the configuration the frames were computed with, and its
// SampleRate must equal run.Config.SampleRate().
func LabelFrames(frames []dsp.Frame, stftCfg dsp.STFTConfig, run *sim.RunResult) []LabeledFrame {
	out := make([]LabeledFrame, 0, len(frames))
	lb := NewLabeler(stftCfg, run)
	for _, f := range frames {
		region, injected := lb.Label(f.Start)
		out = append(out, LabeledFrame{
			Frame:    f,
			Region:   region,
			Injected: injected,
			TimeSec:  float64(f.Start) / stftCfg.SampleRate,
		})
	}
	return out
}

// Labeler is a cursor over a run's region trace that labels analysis
// windows by their start sample. Window starts must be non-decreasing
// across calls (the cursor only moves forward), which every hop-by-hop
// walk of a capture satisfies.
type Labeler struct {
	run    *sim.RunResult
	ws     int
	period int64
	segIdx int
}

// NewLabeler starts a cursor at the beginning of run's region trace for
// windows of stftCfg.WindowSize samples.
func NewLabeler(stftCfg dsp.STFTConfig, run *sim.RunResult) Labeler {
	return Labeler{run: run, ws: stftCfg.WindowSize, period: int64(run.Config.SamplePeriod)}
}

// Label returns the ground truth of the window starting at sample start:
// the region holding the largest share of the window's cycles
// (cfg.NoRegion outside the traced execution) and whether any injected
// execution fell in the window.
func (l *Labeler) Label(start int) (region cfg.RegionID, injected bool) {
	startCycle := int64(start) * l.period
	endCycle := (int64(start) + int64(l.ws)) * l.period
	segs := l.run.Segments

	// Advance past segments that end before this window.
	for l.segIdx < len(segs) && segs[l.segIdx].EndCycle <= startCycle {
		l.segIdx++
	}
	// Find the region with the largest cycle overlap.
	region = cfg.NoRegion
	var bestOverlap int64
	for i := l.segIdx; i < len(segs) && segs[i].StartCycle < endCycle; i++ {
		s := segs[i]
		lo := max(s.StartCycle, startCycle)
		hi := min(s.EndCycle, endCycle)
		if hi-lo > bestOverlap {
			bestOverlap = hi - lo
			region = s.Region
		}
	}
	inj := l.run.InjectedSamples
	for k := start; k < start+l.ws && k < len(inj); k++ {
		if inj[k] {
			return region, true
		}
	}
	return region, false
}
