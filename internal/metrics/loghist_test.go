package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"

	"eddie/internal/allocguard"
)

// TestLogBucketIndexExactBelowLinear: values under the linear limit get
// their own unit buckets, so small queue depths are exact.
func TestLogBucketIndexExactBelowLinear(t *testing.T) {
	for v := int64(0); v < logHistLinear; v++ {
		if got := logBucketIndex(v); got != int(v) {
			t.Fatalf("logBucketIndex(%d) = %d, want %d", v, got, v)
		}
		if got := logBucketMax(int(v)); got != v {
			t.Fatalf("logBucketMax(%d) = %d, want %d", v, got, v)
		}
	}
}

// TestLogBucketIndexMonotone: bucket index is monotone in the value and
// every value is <= its bucket's upper bound, across representative
// points of the whole int64 range.
func TestLogBucketIndexMonotone(t *testing.T) {
	vals := []int64{0, 1, 31, 32, 33, 47, 48, 63, 64, 100, 1000, 4095, 4096,
		1 << 20, 1<<20 + 1, 1 << 40, 1<<62 - 1, 1 << 62, math.MaxInt64}
	prevIdx := -1
	for _, v := range vals {
		idx := logBucketIndex(v)
		if idx < prevIdx {
			t.Fatalf("bucket index not monotone at %d: %d < %d", v, idx, prevIdx)
		}
		prevIdx = idx
		if idx < 0 || idx >= logHistBuckets {
			t.Fatalf("logBucketIndex(%d) = %d out of range [0,%d)", v, idx, logHistBuckets)
		}
		ub := logBucketMax(idx)
		if ub < v {
			t.Fatalf("logBucketMax(%d)=%d below value %d", idx, ub, v)
		}
		// Relative error bound: upper bound overshoots by < 1/logHistSub.
		if v >= logHistLinear {
			if rel := float64(ub-v) / float64(v); rel > 1.0/logHistSub {
				t.Fatalf("value %d: bound %d relative error %.4f > %.4f",
					v, ub, rel, 1.0/logHistSub)
			}
		}
	}
}

// TestLogBucketBoundsContiguous: every bucket's upper bound is exactly
// one below the next bucket's smallest member — no gaps, no overlaps.
func TestLogBucketBoundsContiguous(t *testing.T) {
	for i := 0; i < logHistBuckets-1; i++ {
		ub := logBucketMax(i)
		if ub == math.MaxInt64 {
			break
		}
		if got := logBucketIndex(ub); got != i {
			t.Fatalf("upper bound %d of bucket %d maps to bucket %d", ub, i, got)
		}
		if got := logBucketIndex(ub + 1); got != i+1 {
			t.Fatalf("value %d (one past bucket %d) maps to bucket %d, want %d",
				ub+1, i, got, i+1)
		}
	}
	// The last bucket holds MaxInt64.
	if got := logBucketIndex(math.MaxInt64); got != logHistBuckets-1 {
		t.Fatalf("MaxInt64 maps to bucket %d, want %d", got, logHistBuckets-1)
	}
}

func TestLogHistogramSnapshotQuantiles(t *testing.T) {
	var h LogHistogram
	// 1000 observations: 1..1000 (values well inside the geometric range).
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("Count = %d, want 1000", s.Count)
	}
	if want := int64(1000 * 1001 / 2); s.Sum != want {
		t.Fatalf("Sum = %d, want %d", s.Sum, want)
	}
	if math.Abs(s.Mean-500.5) > 1e-9 {
		t.Fatalf("Mean = %g, want 500.5", s.Mean)
	}
	// Quantile estimates overshoot by at most one sub-bucket (6.25%).
	checks := []struct {
		name  string
		got   int64
		exact float64
	}{
		{"p50", s.P50, 500}, {"p90", s.P90, 900},
		{"p99", s.P99, 990}, {"p999", s.P999, 999},
	}
	for _, c := range checks {
		if float64(c.got) < c.exact || float64(c.got) > c.exact*(1+1.0/logHistSub)+1 {
			t.Errorf("%s = %d, want within [%g, %g]", c.name, c.got,
				c.exact, c.exact*(1+1.0/logHistSub)+1)
		}
	}
	if float64(s.Max) < 1000 || float64(s.Max) > 1000*(1+1.0/logHistSub)+1 {
		t.Errorf("Max = %d, want ~1000", s.Max)
	}
	if q := h.Quantile(0.5); q != s.P50 {
		t.Errorf("Quantile(0.5) = %d != snapshot P50 %d", q, s.P50)
	}
	if q := h.Quantile(1.0); q != s.Max {
		t.Errorf("Quantile(1.0) = %d != snapshot Max %d", q, s.Max)
	}
}

func TestLogHistogramEmptyAndNegative(t *testing.T) {
	var h LogHistogram
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.P99 != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty Quantile != 0")
	}
	h.Record(-17) // clamps to 0
	s = h.Snapshot()
	if s.Count != 1 || s.Sum != 0 || s.Max != 0 {
		t.Fatalf("negative record not clamped: %+v", s)
	}
}

func TestLogHistogramConcurrent(t *testing.T) {
	var h LogHistogram
	const G, N = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < N; i++ {
				h.Record(int64(g*N + i))
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != G*N {
		t.Fatalf("Count = %d, want %d", got, G*N)
	}
}

// TestLogHistogramRecordZeroAlloc is the alloc gate for the hot-path
// record (run by make obs-bench): one Record per fleet frame must not
// allocate. Each measured pass records a value in every bucket range: a
// clamped negative, zero, and both halves of every power of two up to
// MaxInt64.
func TestLogHistogramRecordZeroAlloc(t *testing.T) {
	var h LogHistogram
	vals := []int64{-5, 0, math.MaxInt64}
	for sh := 0; sh < 63; sh++ {
		vals = append(vals, int64(1)<<sh, int64(1)<<sh+int64(1)<<sh/2)
	}
	allocguard.Zero(t, "LogHistogram.Record", 20, len(vals), func(i int) {
		h.Record(vals[i])
	})
}

func TestFloatGaugeEWMA(t *testing.T) {
	var g FloatGauge
	g.ObserveEWMA(10, 0.5) // seeds directly
	if got := g.Value(); got != 10 {
		t.Fatalf("after seed: %g, want 10", got)
	}
	g.ObserveEWMA(20, 0.5)
	if got := g.Value(); got != 15 {
		t.Fatalf("after second observation: %g, want 15", got)
	}
	// A genuine zero average must not reset the seeding state.
	var z FloatGauge
	z.ObserveEWMA(0, 0.5)
	if got := z.Value(); got != 0 {
		t.Fatalf("zero seed: %g, want 0", got)
	}
	z.ObserveEWMA(1, 0.5)
	if got := z.Value(); got != 0.5 {
		t.Fatalf("zero then one: %g, want 0.5 (zero seed forgotten?)", got)
	}
}

func TestFloatGaugeEWMAZeroAlloc(t *testing.T) {
	var g FloatGauge
	x := 0.1
	if allocs := testing.AllocsPerRun(1000, func() {
		g.ObserveEWMA(x, 0.05)
		x += 0.001
	}); allocs != 0 {
		t.Fatalf("ObserveEWMA allocates %v allocs/op, want 0", allocs)
	}
}

func TestFloatGaugeConcurrentEWMA(t *testing.T) {
	var g FloatGauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.ObserveEWMA(1, 0.1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("EWMA of constant 1 = %g, want 1", got)
	}
}

// TestRegistryNewInstruments: float gauges, log histograms and info
// metrics intern by name and appear in snapshots with their distinct
// value types.
func TestRegistryNewInstruments(t *testing.T) {
	r := NewRegistry()
	if r.FloatGauge("a") != r.FloatGauge("a") {
		t.Error("FloatGauge not interned")
	}
	if r.LogHist("b") != r.LogHist("b") {
		t.Error("LogHist not interned")
	}
	r.FloatGauge("a").Set(0.25)
	r.LogHist("b").Record(3)
	lbl := map[string]string{"version": "v1.2.3"}
	r.SetInfo("build_info", lbl)
	lbl["version"] = "mutated" // SetInfo must have copied

	snap := r.Snapshot()
	if v, ok := snap["a"].(FloatGaugeValue); !ok || float64(v) != 0.25 {
		t.Errorf("snapshot[a] = %#v, want FloatGaugeValue(0.25)", snap["a"])
	}
	if v, ok := snap["b"].(LogHistogramSnapshot); !ok || v.Count != 1 {
		t.Errorf("snapshot[b] = %#v, want LogHistogramSnapshot{Count:1}", snap["b"])
	}
	if v, ok := snap["build_info"].(InfoValue); !ok || v["version"] != "v1.2.3" {
		t.Errorf("snapshot[build_info] = %#v, want copied labels", snap["build_info"])
	}
}

// TestWritePrometheusNewKinds: float gauges render as gauges, info
// metrics as value-1 gauges with sorted labels, log histograms as
// summaries with quantile labels.
func TestWritePrometheusNewKinds(t *testing.T) {
	r := NewRegistry()
	r.FloatGauge("region_stat_ewma/R3").Set(0.125)
	r.SetInfo("build_info", map[string]string{"version": "v1.0", "go": "go1.22"})
	h := r.LogHist("frame_to_verdict_ns/s00")
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 1000)
	}

	var b strings.Builder
	r.WritePrometheus(&b, "eddie")
	out := b.String()
	for _, want := range []string{
		"# TYPE eddie_region_stat_ewma gauge\n",
		"eddie_region_stat_ewma{key=\"R3\"} 0.125\n",
		"# TYPE eddie_build_info gauge\n",
		"eddie_build_info{go=\"go1.22\",version=\"v1.0\"} 1\n",
		"# TYPE eddie_frame_to_verdict_ns summary\n",
		"eddie_frame_to_verdict_ns{key=\"s00\",quantile=\"0.5\"} ",
		"eddie_frame_to_verdict_ns{key=\"s00\",quantile=\"0.999\"} ",
		"eddie_frame_to_verdict_ns_count{key=\"s00\"} 100\n",
		"eddie_frame_to_verdict_ns_sum{key=\"s00\"} 5050000\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}
}

func BenchmarkLogHistogramRecord(b *testing.B) {
	var h LogHistogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
}

func BenchmarkFloatGaugeObserveEWMA(b *testing.B) {
	var g FloatGauge
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.ObserveEWMA(float64(i&1023)/1024, DriftEWMAAlpha)
	}
}
