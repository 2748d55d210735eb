// Command eddie-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	eddie-bench [-short] [-run table1,fig5,...] [-parallel N]
//	eddie-bench -dsp-bench BENCH_dsp.json
//	eddie-bench -decision-bench BENCH_decision.json
//	eddie-bench -denoise-bench BENCH_denoise.json
//	eddie-bench -fleet-bench BENCH_fleet.json [-fleet-short|-fleet-smoke]
//	eddie-bench -obs-bench BENCH_obs.json
//
// With no -run flag every experiment runs, in paper order. -short scales
// the run counts down (~10x faster, noisier numbers). -parallel fixes the
// worker-pool size used for run collection (0 = EDDIE_PARALLELISM env or
// GOMAXPROCS).
//
// The -*-bench modes skip the experiments and write one machine-readable
// BENCH file each. Every file opens with the same header (go_version,
// gomaxprocs, num_cpu and the commit stamped into the binary). Gated
// modes compare a declared list of metrics against the checked-in file
// and fail without overwriting it when any regressed >20%:
//   - -dsp-bench times the DSP kernels (ungated).
//   - -decision-bench times the monitor decision path and the training
//     fan-out, gated on the steady-state Observe benchmark.
//   - -denoise-bench times the SVD subspace-denoising kernels (randomized
//     truncated SVD, Gram-Schmidt orthonormalization, steady-state
//     denoiser push), gated on DenoisePush.
//   - -obs-bench times the observability plane (journal append, latency
//     histogram record, SLO record, drift EWMA); the per-frame
//     instruments must also stay zero-alloc and under 1µs/op.
//   - -fleet-bench runs the fleet-load harness: client swarms over
//     localhost TCP against the sharded server, climbing a session-count
//     ladder and recording frame-to-verdict latency, then 1 vs 2 capped
//     backends behind the coordinator (which must reach 1.8x). It is
//     gated on sustained sessions, p99 latency (only when the sustained
//     rung did not grow) and coordinated sessions. -fleet-short shrinks
//     the ladder; -fleet-smoke runs one tiny ungated rung (CI liveness
//     check).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"eddie/internal/experiments"
	"eddie/internal/par"
)

func main() {
	short := flag.Bool("short", false, "scaled-down run counts")
	runList := flag.String("run", "all", "comma-separated experiments: table1,table2,fig1..fig10,anova,robustness,ablations or all")
	parallel := flag.Int("parallel", 0, "worker-pool size for run collection (0 = EDDIE_PARALLELISM env or GOMAXPROCS)")
	dspBench := flag.String("dsp-bench", "", "run the DSP kernel micro-benchmarks and write JSON results to this file, then exit")
	decisionBench := flag.String("decision-bench", "", "run the decision/training benchmarks and write JSON results to this file (regression-gated on Observe), then exit")
	denoiseBench := flag.String("denoise-bench", "", "run the subspace-denoising kernel benchmarks and write JSON results to this file (regression-gated on DenoisePush), then exit")
	fleetBench := flag.String("fleet-bench", "", "run the fleet-load session-density benchmark and write JSON results to this file (regression-gated on sustained sessions and p99), then exit")
	fleetShort := flag.Bool("fleet-short", false, "with -fleet-bench: shrink the session ladder")
	fleetSmoke := flag.Bool("fleet-smoke", false, "with -fleet-bench: one tiny ungated rung (liveness check)")
	obsBench := flag.String("obs-bench", "", "run the observability-plane micro-benchmarks and write JSON results to this file (zero-alloc and regression gated on the per-frame instruments), then exit")
	flag.Parse()
	par.SetParallelism(*parallel)

	if *dspBench != "" {
		if err := runDSPBench(*dspBench); err != nil {
			fmt.Fprintln(os.Stderr, "eddie-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *decisionBench != "" {
		if err := runDecisionBench(*decisionBench); err != nil {
			fmt.Fprintln(os.Stderr, "eddie-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *denoiseBench != "" {
		if err := runDenoiseBench(*denoiseBench); err != nil {
			fmt.Fprintln(os.Stderr, "eddie-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *obsBench != "" {
		if err := runObsBench(*obsBench); err != nil {
			fmt.Fprintln(os.Stderr, "eddie-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *fleetBench != "" {
		if err := runFleetBench(*fleetBench, *fleetShort, *fleetSmoke); err != nil {
			fmt.Fprintln(os.Stderr, "eddie-bench:", err)
			os.Exit(1)
		}
		return
	}

	e := experiments.NewEnv(*short)
	type exp struct {
		name string
		fn   func() error
	}
	all := []exp{
		{"fig1", func() error { _, err := experiments.Fig1(e, os.Stdout); return err }},
		{"fig2", func() error { _, err := experiments.Fig2(e, os.Stdout); return err }},
		{"fig3", func() error { _, err := experiments.Fig3(e, os.Stdout); return err }},
		{"table1", func() error { _, err := experiments.Table1(e, os.Stdout); return err }},
		{"table2", func() error { _, err := experiments.Table2(e, os.Stdout); return err }},
		{"fig4", func() error { _, err := experiments.Fig4(e, os.Stdout); return err }},
		{"anova", func() error { _, err := experiments.ANOVA(e, os.Stdout); return err }},
		{"fig5", func() error { _, err := experiments.Fig5And7(e, os.Stdout); return err }},
		{"fig7", func() error { _, err := experiments.Fig5And7(e, os.Stdout); return err }},
		{"fig6", func() error { _, err := experiments.Fig6(e, os.Stdout); return err }},
		{"fig8", func() error { _, err := experiments.Fig8(e, os.Stdout); return err }},
		{"fig9", func() error { _, err := experiments.Fig9(e, os.Stdout); return err }},
		{"fig10", func() error { _, err := experiments.Fig10(e, os.Stdout); return err }},
		{"robustness", func() error { _, err := experiments.Robustness(e, os.Stdout); return err }},
		{"ablations", func() error {
			if _, err := experiments.AblationUTest(e, os.Stdout); err != nil {
				return err
			}
			if _, err := experiments.AblationWindow(e, os.Stdout); err != nil {
				return err
			}
			if _, err := experiments.AblationModes(e, os.Stdout); err != nil {
				return err
			}
			_, err := experiments.AblationPeakThreshold(e, os.Stdout)
			return err
		}},
	}

	want := map[string]bool{}
	runAll := *runList == "all"
	for _, name := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(strings.ToLower(name))] = true
	}
	seen := map[string]bool{}
	for _, x := range all {
		if !runAll && !want[x.name] {
			continue
		}
		if seen[x.name] || (x.name == "fig7" && (runAll || want["fig5"])) {
			continue // fig5 and fig7 share one sweep
		}
		seen[x.name] = true
		start := time.Now()
		if err := x.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "eddie-bench: %s: %v\n", x.name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %s]\n\n", x.name, time.Since(start).Round(time.Millisecond))
	}
}
