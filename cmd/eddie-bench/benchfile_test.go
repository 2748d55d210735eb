package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteGated drives the shared regression gate through every
// baseline state: absent, missing the entry, within the limit, over the
// limit in either direction, and unparseable. A failing gate must leave
// the baseline's bytes exactly as they were.
func TestWriteGated(t *testing.T) {
	file := func(ns float64, iters int) *benchFile {
		return &benchFile{
			benchHeader: newBenchHeader(),
			Results:     []benchResult{{Name: "Kernel", NsPerOp: ns, Iterations: iters}},
		}
	}
	encode := func(f *benchFile) []byte {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// Iterations stands in for a higher-is-better metric.
	iters := gatedMetric[benchFile]{
		name: "Kernel iterations", better: higherIsBetter, limit: regressionLimit,
		value: func(f *benchFile) float64 {
			if r := f.result("Kernel"); r != nil {
				return float64(r.Iterations)
			}
			return 0
		},
	}
	gates := []gatedMetric[benchFile]{nsPerOp("Kernel"), iters}

	cases := []struct {
		name     string
		baseline []byte // nil = no baseline file
		out      *benchFile
		wantErr  string
	}{
		{"no baseline", nil, file(100, 1000), ""},
		{"entry missing", encode(&benchFile{Results: []benchResult{{Name: "Other", NsPerOp: 1}}}), file(100, 1000), ""},
		{"within limit", encode(file(100, 1000)), file(119, 840), ""},
		{"lower-is-better over limit", encode(file(100, 1000)), file(121, 1000), "Kernel ns/op regressed"},
		{"higher-is-better over limit", encode(file(100, 1000)), file(100, 830), "Kernel iterations regressed"},
		{"malformed baseline", []byte(`{"results": [`), file(100, 1000), "parsing baseline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH_test.json")
			if tc.baseline != nil {
				if err := os.WriteFile(path, tc.baseline, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			err := writeGated(path, tc.out, gates)
			got, readErr := os.ReadFile(path)
			if readErr != nil {
				t.Fatal(readErr)
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				if !bytes.Equal(got, tc.baseline) {
					t.Errorf("failed gate rewrote the baseline:\n%s", got)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			var written benchFile
			if err := json.Unmarshal(got, &written); err != nil {
				t.Fatal(err)
			}
			if r := written.result("Kernel"); r == nil || r.NsPerOp != tc.out.Results[0].NsPerOp {
				t.Errorf("written file does not hold the new run: %s", got)
			}
			if written.Commit == "" || written.NumCPU == 0 {
				t.Errorf("written file lacks the header: %s", got)
			}
		})
	}
}

// TestFleetGatesP99Rule checks the fleet bench's conditional gate: p99
// latency is compared only when the sustained rung did not grow.
func TestFleetGatesP99Rule(t *testing.T) {
	run := func(sessions int, p99 float64) *fleetBenchFile {
		f := &fleetBenchFile{}
		f.Sharded.MeasuredSustained = sessions
		f.Sharded.P99Ms = p99
		f.Coord2.MeasuredSustained = 96
		return f
	}
	path := filepath.Join(t.TempDir(), "BENCH_fleet.json")
	data, err := json.Marshal(run(96, 300))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeGated(path, run(96, 400), fleetGates); err == nil || !strings.Contains(err.Error(), "p99") {
		t.Fatalf("p99 regression at the same density: err = %v, want a p99 failure", err)
	}
	if err := writeGated(path, run(128, 400), fleetGates); err != nil {
		t.Fatalf("higher p99 at a grown sustained rung must pass: %v", err)
	}
}
