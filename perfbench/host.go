package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// refCalibMs is the reference host speed: the duration of one
// calibration slice on a reference host. Times reported at reference
// speed are raw × refCalibMs ÷ (the run's mean slice), that ratio taken
// to the power runCtx.calibExp gives some timings, so a host that
// runs everything slower for a while — other tenants on shared cores —
// does not read as a regression. The constant only fixes the unit;
// comparisons between commits never depend on it.
const refCalibMs = 7.2

// calibIters sizes one calibration slice: a float and integer mix over
// a 64 KiB array, similar in character to the FFT, peak and K-S loops
// the program spends its time in.
const calibIters = 150

var calibBuf = func() []float64 {
	b := make([]float64, 8192)
	for i := range b {
		b[i] = float64(i%97) * 0.01
	}
	return b
}()

// calibSink keeps the calibration arithmetic observable, so the
// compiler cannot drop it.
var calibSink float64

// calibSlice runs one fixed calibration slice and returns its wall time
// in milliseconds. It allocates nothing and touches no program code.
func calibSlice() float64 {
	t0 := time.Now()
	acc := 0.0
	x := uint64(88172645463325252)
	for it := 0; it < calibIters; it++ {
		for i := range calibBuf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v := calibBuf[i]*1.0000001 + float64(x&1023)*1e-6
			calibBuf[i] = v - math.Floor(v)
			acc += math.Sqrt(calibBuf[i] + 1)
		}
	}
	calibSink += acc
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// calibrator collects a run's calibration slices. They are taken
// between timed steps, while the program is idle, all through the run:
// the host's speed switches between phases up to 2× apart within a
// second and drifts over minutes, so a run is calibrated by the mean of
// its slices, which moves in proportion to the share of time the run
// spent in each phase, as the program's own timings do. Calibration
// never drops, retries or reorders a step.
type calibrator struct {
	slices []float64
}

// slice runs one calibration slice and records it.
func (c *calibrator) slice() {
	c.slices = append(c.slices, calibSlice())
}

// step times fn and follows it with a calibration slice, returning fn's
// wall time in seconds. A nil calibrator only times fn.
func (c *calibrator) step(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0).Seconds()
	if c != nil {
		c.slice()
	}
	return d, err
}

// mean returns the run's mean slice in milliseconds.
func (c *calibrator) mean() float64 {
	var s float64
	for _, x := range c.slices {
		s += x
	}
	return s / float64(len(c.slices))
}

// speed is the host speed relative to the reference over this run: > 1
// on a host (or phase) faster than the reference, < 1 on a slower one.
func (c *calibrator) speed() float64 { return refCalibMs / c.mean() }

// median of xs (NaN when empty). xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN when empty). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// header is the run header every result records.
type header struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Seconds    int       `json:"seconds"`
	Trace      bool      `json:"trace"`
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Workers    int       `json:"workers"`
	Shards     int       `json:"shards"`
	Commit     string    `json:"commit"`
	RefCalibMs float64   `json:"ref_calib_ms"`
	CalibMs    []float64 `json:"calib_ms"`
}

func newHeader(workload string, seed int64, seconds int, traced bool) header {
	return header{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      traced,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    1,
		Shards:     1,
		Commit:     commit(),
		RefCalibMs: refCalibMs,
	}
}

// commit identifies the program under test: the VCS revision stamped at
// build time when the tree is a git checkout, otherwise a digest of the
// module's Go sources (the benchmark often runs from an exported tree
// with no VCS metadata).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// heapAfterGC returns the live heap in bytes after full collections.
// The second collection empties the sync.Pool victim caches the first
// one leaves behind, so pooled buffers do not count as live.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// allocBytes returns the cumulative bytes allocated by the process.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
