// Command perfbench is EDDIE's end-to-end benchmark. One command runs a
// workload against the program's existing layers, checks its verdicts
// against a reference, and prints every metric by name with its unit:
//
//	go run . --workload offline_iot --seed 1 --seconds 20 --trace 0
//
// (run.py at this directory's root builds the binary and forwards the
// same flags; BENCHMARK.json names the workloads and metrics). The last
// line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; --trace 1 makes a
// separate traced run with the same seed and prints the per-layer
// metrics instead. Lines before the result record the run header (Go
// version, CPUs, GOMAXPROCS, workers, shards, commit, seed and host
// calibration slices), the exact per-pass counts and the raw form of
// every calibrated timing.
//
// Every workload runs the program on one worker (par = 1, one fleet
// shard) so the second core is left to the load generator and the Go
// runtime, and every timing is taken as many identical slices with the
// median reported. A fixed calibration slice runs between steps while
// the program is idle, and timing metrics are reported at reference
// host speed (raw × reference slice ÷ the mean slice of the run, or of
// the set-up period for setup_s): the host's speed drifts by up to 2×
// between phases, and in the steadiness runs the calibrated form
// repeated better than the raw one. The host's fast phases speed the
// calibration slice up more than they speed up stream_drift's set-up
// and fleet_alarm's timings, which are partly waiting on sockets,
// timers and the journal's files, so those are scaled by that ratio to
// the power 0.7. Calibration never drops, retries or reorders a run.
//
// End-to-end metrics, per workload:
//
//   - setup_s: everything a user pays before the first verdict —
//     training, model load, server start, session handshakes — as the
//     median of three set-ups (nine on fleet_alarm). Generating inputs
//     is excluded.
//   - throughput_msps: input samples carried to a verdict per second.
//     offline_iot and stream_drift time every pass slot by slot and sum
//     the per-slot medians; fleet_alarm, an open loop whose delivered
//     rate only echoes the offered one, reports samples decided per
//     second of shard busy time (fleet_turn_ns).
//   - verdict_latency_p50_ms / _p90_ms: how long a user waits for a
//     verdict on one unit of input. offline_iot: one captured run,
//     collection to score; stream_drift: one 4096-sample chunk through
//     Feed — each unit timed in every pass, its median over the passes
//     taken, the percentiles across units. fleet_alarm: alarm latency,
//     from the scheduled send of the frame holding the alarmed window's
//     last sample to the report's arrival at the client (generator
//     lateness and queue wait included, window length excluded), its
//     percentile taken per schedule block of four episodes and the
//     median over the blocks reported.
//   - accuracy_pct: window accuracy against ground truth.
//   - detect_pct: share of injected runs or anomalous episodes that
//     raised at least one report.
//   - alloc_b_per_sample: heap bytes allocated per input sample during
//     the timed phase.
//   - live_heap_mb: heap in use after a GC at steady state, less the
//     generator's own input buffers.
//
// The false-positive, false-alarm and failed-operation shares are 0 on
// some workloads, so they are per-layer diagnostics (verdict.fp_pct,
// verdict.false_alarm_pct, run.failed_pct); failures also show in the
// result's "failed" count.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"eddie/internal/par"
)

// e2eUnits are the end-to-end metrics and their units.
var e2eUnits = map[string]string{
	"setup_s":                "s",
	"throughput_msps":        "Msamples/s",
	"verdict_latency_p50_ms": "ms",
	"verdict_latency_p90_ms": "ms",
	"accuracy_pct":           "%",
	"detect_pct":             "%",
	"alloc_b_per_sample":     "B/sample",
	"live_heap_mb":           "MiB",
}

// layerUnits are the per-layer metrics and their units. A workload
// that bypasses a layer reports 0 for it: the prediction for a change
// to that layer on that workload is no change.
var layerUnits = map[string]string{
	"sim.ms_per_run":                "ms",
	"emsim.ms_per_run":              "ms",
	"dsp.stft_us_per_window":        "us",
	"dsp.peaks_us_per_window":       "us",
	"dsp.denoise_us_per_window":     "us",
	"dsp.denoise_refactors":         "count",
	"trace.label_us_per_window":     "us",
	"core.extract_us_per_window":    "us",
	"core.observe_us_per_window":    "us",
	"core.ks_tests_per_window":      "count",
	"core.region_switches":          "count",
	"core.adapt_updates":            "count",
	"core.train_s":                  "s",
	"impair.us_per_window":          "us",
	"stream.window_us_p50":          "us",
	"stream.window_us_p99":          "us",
	"fleet.frame_to_verdict_p50_ms": "ms",
	"fleet.frame_to_verdict_p99_ms": "ms",
	"fleet.turn_us_p50":             "us",
	"fleet.queue_depth_p99":         "count",
	"fleet.backpressure_stalls":     "count",
	"fleet.alarm_latency_p99_ms":    "ms",
	"fleet.unaccounted_ms_p50":      "ms",
	"obs.journal_events":            "count",
	"obs.journal_bytes_per_alarm":   "B",
	"gen.late_p50_ms":               "ms",
	"gen.late_p99_ms":               "ms",
	"gen.offered_msps":              "Msamples/s",
	"gen.delivered_msps":            "Msamples/s",
	"gen.write_us_p50":              "us",
	"host.calib_ms":                 "ms",
	"bench.trace_overhead_pct":      "%",
	"bench.traced_coverage_pct":     "%",
	"raw.setup_s":                   "s",
	"raw.throughput_msps":           "Msamples/s",
	"raw.verdict_latency_p50_ms":    "ms",
	"raw.verdict_latency_p90_ms":    "ms",
	"verdict.fp_pct":                "%",
	"verdict.false_alarm_pct":       "%",
	"run.failed_pct":                "%",
}

// workload is one benchmark input set. why says which layers only it
// exercises; BENCHMARK.json carries the same line.
type workload struct {
	name string
	why  string
	run  func(rc *runCtx) error
}

// workloads in BENCHMARK.json order.
var workloads = []workload{
	{"offline_iot", "Table 1 recipe closed loop: the only workload running sim, emsim, offline STFT, trace labelling and ExtractSTS; Train dominates set-up", runOfflineIoT},
	{"stream_drift", "long-lived detector on a noisy drifting channel: the only workload running impair, the RSVD denoiser and reference adaptation", runStreamDrift},
	{"fleet_alarm", "two devices streaming to the fleet server over localhost TCP, open loop: the only workload running wire decode, shard queueing and the alarm journal", runFleetAlarm},
}

// runCtx carries one run's settings and collects its outcome.
type runCtx struct {
	seed    int64
	seconds float64
	traced  bool
	// small shrinks every workload to a few slices (the self-test).
	small bool

	calib calibrator
	// calibExp gives, per timing metric, the power of the host speed it
	// is scaled by; a metric not named is scaled by the speed itself. A
	// timing that is partly waiting (socket wake-ups, file I/O, timer
	// slack) follows the calibration slice less than in proportion (see
	// calibrator).
	calibExp map[string]float64

	attempted, failed int
	// failures describes each failed check (printed before the result).
	failures []string
	e2e      map[string]float64
	layer    map[string]float64
	// counts are the exact per-pass counts that must repeat for a seed.
	counts map[string]int64
}

// fail records one failed check covering n operations.
func (rc *runCtx) fail(n int, format string, args ...any) {
	rc.failed += n
	rc.failures = append(rc.failures, fmt.Sprintf(format, args...))
}

// deadline returns when the timed phase, starting now, ends.
func (rc *runCtx) deadline() time.Time {
	return time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
}

// setTiming records a timing metric in the end-to-end set — at
// reference host speed, to the power the workload gives it in calibExp
// — and its raw form among the per-layer diagnostics. Rates
// (higherBetter) scale the other way from times.
func (rc *runCtx) setTiming(name string, raw float64, higherBetter bool) {
	exp, ok := rc.calibExp[name]
	if !ok {
		exp = 1
	}
	f := math.Pow(rc.calib.speed(), exp)
	if higherBetter {
		f = 1 / f
	}
	rc.e2e[name] = raw * f
	rc.layer["raw."+name] = raw
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: offline_iot, stream_drift or fleet_alarm")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 makes the traced run and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload in {offline_iot, stream_drift, fleet_alarm}, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	rc := &runCtx{seed: *seed, seconds: float64(*seconds), traced: *traced == 1}
	res, err := execute(w, rc)
	hd := newHeader(w.name, *seed, *seconds, rc.traced)
	hd.CalibMs = rc.calib.slices
	printJSONLine(stdout, "header", hd)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	printJSONLine(stdout, "counts", rc.counts)
	for _, f := range rc.failures {
		fmt.Fprintf(stdout, "# failed: %s\n", f)
	}
	raw := map[string]float64{}
	for k, v := range rc.layer {
		if strings.HasPrefix(k, "raw.") {
			raw[k] = v
		}
	}
	printJSONLine(stdout, "raw", raw)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// execute runs one workload on one worker and assembles its result.
func execute(w *workload, rc *runCtx) (*result, error) {
	par.SetParallelism(1)
	rc.e2e = map[string]float64{}
	rc.layer = map[string]float64{}
	rc.counts = map[string]int64{}
	if err := w.run(rc); err != nil {
		return nil, err
	}
	if rc.attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	rc.layer["host.calib_ms"] = rc.calib.mean()
	rc.layer["run.failed_pct"] = 100 * float64(rc.failed) / float64(rc.attempted)
	units, values := e2eUnits, rc.e2e
	if rc.traced {
		units, values = layerUnits, rc.layer
	}
	res := &result{
		Correct:   rc.failed == 0,
		Attempted: rc.attempted,
		Failed:    rc.failed,
		Metrics:   map[string]metricValue{},
	}
	for name, unit := range units {
		v, ok := values[name]
		if !ok && !rc.traced {
			return nil, fmt.Errorf("end-to-end metric %s not measured", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
		res.Metrics[name] = metricValue{Value: v, Unit: unit}
	}
	return res, nil
}

// printJSONLine prints a '#'-prefixed diagnostic line with sorted keys.
func printJSONLine(w io.Writer, tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(w, "# %s %s\n", tag, b)
}

// seedFor derives an independent deterministic stream for one purpose
// from the workload seed, so adding a consumer never shifts another's
// inputs.
func seedFor(seed int64, purpose int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(purpose)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x >> 1)
}
