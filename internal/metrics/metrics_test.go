package metrics

import (
	"encoding/json"
	"expvar"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter value %d, want 5", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("concurrent counter value %d, want 8000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(7)
	g.Inc()
	g.Add(4)
	g.Dec()
	if g.Value() != 11 {
		t.Errorf("gauge value %d, want 11", g.Value())
	}
	g.Add(-20) // gauges, unlike counters, may go negative
	if g.Value() != -9 {
		t.Errorf("gauge value %d, want -9", g.Value())
	}
}

func TestGaugeRegistryAndSnapshot(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("queue_depth")
	if r.Gauge("queue_depth") != g {
		t.Fatal("registry did not intern the gauge by name")
	}
	g.Set(42)
	snap := r.Snapshot()
	if v, ok := snap["queue_depth"].(GaugeValue); !ok || int64(v) != 42 {
		t.Errorf("snapshot queue_depth = %#v, want GaugeValue(42)", snap["queue_depth"])
	}
	var buf strings.Builder
	r.WritePrometheus(&buf, "eddie")
	out := buf.String()
	if !strings.Contains(out, "# TYPE eddie_queue_depth gauge") ||
		!strings.Contains(out, "eddie_queue_depth 42") {
		t.Errorf("prometheus exposition missing gauge:\n%s", out)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Errorf("count %d, want 5", s.Count)
	}
	if s.Min != 0.5 || s.Max != 100 {
		t.Errorf("min/max %g/%g, want 0.5/100", s.Min, s.Max)
	}
	if want := (0.5 + 1 + 1.5 + 3 + 100) / 5; math.Abs(s.Mean-want) > 1e-12 {
		t.Errorf("mean %g, want %g", s.Mean, want)
	}
	// SearchFloat64s puts v == bound into that bound's bucket.
	wantBuckets := []int64{2, 1, 1, 1}
	for i, w := range wantBuckets {
		if s.Buckets[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, s.Buckets[i], w, s.Buckets)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	s := NewHistogram(nil).Snapshot()
	if s.Count != 0 || s.Mean != 0 {
		t.Errorf("empty histogram snapshot %+v", s)
	}
	if len(s.Buckets) != 1 {
		t.Errorf("no-bounds histogram has %d buckets, want 1 overflow bucket", len(s.Buckets))
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("same-name counters are distinct")
	}
	if r.Histogram("h", []float64{1}) != r.Histogram("h", nil) {
		t.Error("same-name histograms are distinct")
	}
}

func TestRegistryJSONDeterministic(t *testing.T) {
	mk := func() *Registry {
		r := NewRegistry()
		r.Counter("zeta").Add(3)
		r.Counter("alpha").Add(1)
		r.Histogram("mid", []float64{1, 2}).Observe(1.5)
		return r
	}
	a, err := json.Marshal(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(mk())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("registry JSON not deterministic:\n%s\n%s", a, b)
	}
	var decoded map[string]any
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatalf("registry JSON invalid: %v", err)
	}
	if decoded["alpha"].(float64) != 1 || decoded["zeta"].(float64) != 3 {
		t.Errorf("decoded counters wrong: %v", decoded)
	}
}

func TestRegistryString(t *testing.T) {
	r := NewRegistry()
	r.Counter("n").Inc()
	var decoded map[string]any
	if err := json.Unmarshal([]byte(r.String()), &decoded); err != nil {
		t.Fatalf("String() is not JSON: %v", err)
	}
}

func TestDetectorMonitorStatsHooks(t *testing.T) {
	d := NewDetector()
	d.KSTest(0, 0.4, false)
	d.KSTest(0, 0.9, true)
	d.KSTest(1, 0.1, false)
	d.WindowObserved(0, true)
	d.WindowObserved(1, false)
	d.ReportFired()
	d.RegionSwitch()

	if d.KSTests.Value() != 3 || d.KSRejects.Value() != 1 {
		t.Errorf("ks tests/rejects %d/%d, want 3/1", d.KSTests.Value(), d.KSRejects.Value())
	}
	if d.ReportsFired.Value() != 1 || d.RegionSwitches.Value() != 1 {
		t.Errorf("reports/switches %d/%d, want 1/1", d.ReportsFired.Value(), d.RegionSwitches.Value())
	}
	snap := d.Reg.Snapshot()
	if h, ok := snap["region_stat/R0"].(HistogramSnapshot); !ok || h.Count != 2 {
		t.Errorf("region_stat/R0 = %v, want 2 observations", snap["region_stat/R0"])
	}
	if c, ok := snap["region_rejects/R0"].(int64); !ok || c != 1 {
		t.Errorf("region_rejects/R0 = %v, want 1", snap["region_rejects/R0"])
	}

	// A monitor without a Stats bundle calls the hooks on nil.
	var none *Detector
	none.KSTest(0, 0.5, true)
	none.WindowObserved(0, true)
	none.ReportFired()
	none.RegionSwitch()
}

func TestRegistryPublish(t *testing.T) {
	// expvar.Publish panics on duplicate names, so publish a unique one
	// and only check it doesn't blow up.
	r := NewRegistry()
	r.Counter("x").Inc()
	r.Publish("eddie_metrics_test")
}

func TestRegistryPublishIdempotent(t *testing.T) {
	// Regression: Publish used to forward straight to expvar.Publish,
	// which panics on a duplicate name — so any process that published
	// per monitoring run (cmd/eddie -serve) died on the second run.
	r := NewRegistry()
	r.Counter("x").Inc()
	r.Publish("eddie_metrics_idempotent_test")
	r.Publish("eddie_metrics_idempotent_test") // same registry again

	// A different registry colliding on the name must not panic either;
	// the first publication wins.
	r2 := NewRegistry()
	r2.Publish("eddie_metrics_idempotent_test")

	// And concurrent publication must be safe.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Publish("eddie_metrics_idempotent_concurrent")
		}()
	}
	wg.Wait()
	if expvar.Get("eddie_metrics_idempotent_test") == nil {
		t.Fatal("name not published")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("sts_produced").Add(7)
	r.Counter("region_rejects/R3").Add(2)
	r.Histogram("peak_count", []float64{1, 4}).Observe(0.5)
	r.Histogram("peak_count", nil).Observe(3)
	r.Histogram("peak_count", nil).Observe(100)

	var b strings.Builder
	r.WritePrometheus(&b, "eddie")
	out := b.String()

	for _, want := range []string{
		"# TYPE eddie_sts_produced counter\n",
		"eddie_sts_produced 7\n",
		"# TYPE eddie_region_rejects counter\n",
		"eddie_region_rejects{key=\"R3\"} 2\n",
		"# TYPE eddie_peak_count histogram\n",
		"eddie_peak_count_bucket{le=\"1\"} 1\n",
		"eddie_peak_count_bucket{le=\"4\"} 2\n", // cumulative
		"eddie_peak_count_bucket{le=\"+Inf\"} 3\n",
		"eddie_peak_count_sum 103.5\n",
		"eddie_peak_count_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}

	// Deterministic output: two renders are byte-identical.
	var b2 strings.Builder
	r.WritePrometheus(&b2, "eddie")
	if out != b2.String() {
		t.Error("WritePrometheus output is not deterministic")
	}
}

func TestSanitizeMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"ks_tests":    "ks_tests",
		"weird-name":  "weird_name",
		"1starts":     "_1starts",
		"dots.inside": "dots_inside",
	} {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}
