package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
)

// benchHeader opens every BENCH_*.json this command writes: the
// toolchain, the hardware the numbers were taken on and the commit they
// measure.
type benchHeader struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit"`
}

// newBenchHeader describes the running process. The commit is the
// binary's stamped vcs.revision, suffixed "-dirty" when the working tree
// had uncommitted changes ("unknown" when the build carried no VCS
// information, e.g. a plain `go run`).
func newBenchHeader() benchHeader {
	h := benchHeader{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

// kernelBench names one testing.Benchmark function that lands in a JSON
// results file.
type kernelBench struct {
	name string
	n    int
	fn   func(b *testing.B)
}

// benchResult is one benchmark's measurement.
type benchResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"` // transform, signal or model size
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchFile is the schema of BENCH_dsp/decision/denoise/obs.json.
type benchFile struct {
	benchHeader
	Results []benchResult `json:"results"`
}

// result returns the named entry, nil when absent.
func (f *benchFile) result(name string) *benchResult {
	for i := range f.Results {
		if f.Results[i].Name == name {
			return &f.Results[i]
		}
	}
	return nil
}

// runBenches times each benchmark with testing.Benchmark, printing one
// line per result. The go-test benchmarks in the measured packages cover
// the same code; this mode exists so the numbers can be captured by
// scripts without parsing `go test -bench` text output.
func runBenches(benches []kernelBench) *benchFile {
	out := &benchFile{benchHeader: newBenchHeader()}
	for _, bm := range benches {
		out.Results = append(out.Results, timeBench(bm))
	}
	return out
}

// timeBench times one benchmark and prints its line.
func timeBench(bm kernelBench) benchResult {
	r := testing.Benchmark(bm.fn)
	res := benchResult{
		Name:        bm.name,
		N:           bm.n,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	fmt.Printf("%-24s n=%-7d %12.0f ns/op %10d B/op %6d allocs/op\n",
		res.Name, res.N, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	return res
}

// gateRepeats is how many times a regression-gated benchmark runs; its
// row holds the median run.
const gateRepeats = 5

// timeMedian times one benchmark repeats times and returns the median
// run by ns/op, so a gate on it does not turn on one slow host phase.
func timeMedian(bm kernelBench, repeats int) benchResult {
	runs := make([]benchResult, repeats)
	for i := range runs {
		runs[i] = timeBench(bm)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].NsPerOp < runs[j].NsPerOp })
	med := runs[repeats/2]
	fmt.Printf("%-24s median of %d runs: %.0f ns/op\n", bm.name, repeats, med.NsPerOp)
	return med
}

// better says which direction of a gated metric is an improvement.
type better int

const (
	lowerIsBetter better = iota
	higherIsBetter
)

// regressionLimit is the accepted worsening of every gated metric
// against the checked-in baseline: 20%.
const regressionLimit = 1.20

// gatedMetric is one regression-gated number of a BENCH file of type T.
type gatedMetric[T any] struct {
	name   string
	better better
	// limit is the accepted worsening ratio: a lower-is-better metric
	// fails above baseline*limit, a higher-is-better one when
	// value*limit drops below the baseline.
	limit float64
	// value reads the metric from a file; 0 means absent (a baseline
	// without the entry gates nothing).
	value func(f *T) float64
	// applies, when non-nil, restricts the gate to runs where it returns
	// true for the (baseline, new) pair.
	applies func(old, cur *T) bool
}

// nsPerOp gates the named benchResult's ns/op at regressionLimit.
func nsPerOp(name string) gatedMetric[benchFile] {
	return gatedMetric[benchFile]{
		name:   name + " ns/op",
		better: lowerIsBetter,
		limit:  regressionLimit,
		value: func(f *benchFile) float64 {
			if r := f.result(name); r != nil {
				return r.NsPerOp
			}
			return 0
		},
	}
}

// regressed reports whether cur is worse than old beyond the limit.
func (g gatedMetric[T]) regressed(old, cur float64) bool {
	if g.better == higherIsBetter {
		return cur*g.limit < old
	}
	return cur > old*g.limit
}

// writeGated checks out against the baseline at path and then rewrites
// path with out. A missing baseline, or no gates, checks nothing. When
// any gated metric regressed — or the baseline cannot be read or parsed —
// it returns an error and leaves the baseline file untouched.
func writeGated[T any](path string, out *T, gates []gatedMetric[T]) error {
	if len(gates) > 0 {
		if err := checkGates(path, out, gates); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkGates compares out against the baseline at path.
func checkGates[T any](path string, out *T, gates []gatedMetric[T]) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	} else if err != nil {
		return err
	}
	old := new(T)
	if err := json.Unmarshal(data, old); err != nil {
		return fmt.Errorf("parsing baseline %s: %v", path, err)
	}
	for _, g := range gates {
		if g.applies != nil && !g.applies(old, out) {
			continue
		}
		if o, c := g.value(old), g.value(out); o > 0 && g.regressed(o, c) {
			return fmt.Errorf("%s regressed: %.4g vs baseline %.4g (>%.0f%% worse); baseline %s left untouched",
				g.name, c, o, (g.limit-1)*100, path)
		}
	}
	return nil
}
