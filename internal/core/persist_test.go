package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"eddie/internal/stats"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	m := testMachine(t)
	model, err := Train("synthetic", m, synthTrainingRuns(m, 6, 100e3, 250e3), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf, m)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ProgramName != model.ProgramName || loaded.Alpha != model.Alpha ||
		loaded.MaxGroupSize != model.MaxGroupSize {
		t.Error("header fields not preserved")
	}
	if len(loaded.Regions) != len(model.Regions) {
		t.Fatalf("region count %d != %d", len(loaded.Regions), len(model.Regions))
	}
	for id, rm := range model.Regions {
		lrm := loaded.Regions[id]
		if lrm == nil {
			t.Fatalf("region %d missing after load", id)
		}
		if lrm.NumPeaks != rm.NumPeaks || lrm.GroupSize != rm.GroupSize ||
			lrm.TrainWindows != rm.TrainWindows || len(lrm.Modes) != len(rm.Modes) {
			t.Errorf("region %d scalar fields differ", id)
		}
		if lrm.Counts != rm.Counts || lrm.Energies != rm.Energies {
			t.Errorf("region %d summaries differ: %+v %+v, saved %+v %+v", id, lrm.Counts, lrm.Energies, rm.Counts, rm.Energies)
		}
		if !reflect.DeepEqual(lrm.Modes, rm.Modes) {
			t.Errorf("region %d modes differ after load", id)
		}
	}

	// The loaded model must behave identically under monitoring.
	r := rand.New(rand.NewSource(77))
	run := synthRun(r, m, 100e3, 250e3*0.85)
	score := func(model *Model) int {
		mon, err := NewMonitor(model, DefaultMonitorConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i := range run {
			mon.Observe(&run[i])
		}
		return len(mon.Reports)
	}
	if a, b := score(model), score(loaded); a != b {
		t.Errorf("original model: %d reports, loaded model: %d", a, b)
	}
}

func TestModelSaveLoadFile(t *testing.T) {
	m := testMachine(t)
	model, err := Train("synthetic", m, synthTrainingRuns(m, 4, 100e3, 250e3), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelFile(path, m)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ProgramName != "synthetic" {
		t.Errorf("loaded program name %q", loaded.ProgramName)
	}
	if _, err := LoadModelFile(filepath.Join(t.TempDir(), "absent.json"), m); err == nil {
		t.Error("loading a missing file should fail")
	}
}

func TestLoadModelRejectsMismatchedMachine(t *testing.T) {
	m := testMachine(t)
	model, err := Train("synthetic", m, synthTrainingRuns(m, 4, 100e3, 250e3), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := otherMachine(t)
	if _, err := LoadModel(&buf, other); err == nil {
		t.Error("model attached to a machine of a different program")
	} else if !strings.Contains(err.Error(), "different program") {
		t.Errorf("unexpected error: %v", err)
	}
}

// otherMachine builds a machine with a different shape than testMachine.
func otherMachine(t *testing.T) *cfgMachine {
	t.Helper()
	b := builderNew("other", 4)
	entry := b.NewBlock("entry")
	h1 := b.NewBlock("h1")
	b1 := b.NewBlock("b1")
	exit := b.NewBlock("exit")
	entry.Li(1, 10).Li(0, 0)
	entry.Jump(h1)
	h1.Branch(condGT, 1, 0, b1, exit)
	b1.SubI(1, 1, 1)
	b1.Jump(h1)
	exit.Halt()
	m, err := machineBuild(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// corruptModelJSON decodes a saved model into generic JSON, applies a
// mutation, and re-encodes it — the corrupt-fixture factory for the
// hostile-file tests below.
func corruptModelJSON(t *testing.T, saved []byte, mutate func(m map[string]any)) *bytes.Buffer {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(saved, &m); err != nil {
		t.Fatal(err)
	}
	mutate(m)
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewBuffer(b)
}

// testableRegion returns the first saved region with peaks and modes
// (the interesting one to corrupt) as a generic JSON object.
func testableRegion(t *testing.T, m map[string]any) map[string]any {
	t.Helper()
	for _, r := range m["regions"].([]any) {
		reg := r.(map[string]any)
		if reg["numPeaks"].(float64) > 0 && reg["modes"] != nil {
			return reg
		}
	}
	t.Fatal("no testable region in saved model")
	return nil
}

// TestLoadModelRejectsCorruptFiles feeds LoadModel a battery of corrupt
// model files — the kind a hostile fleet client could point the server
// at — and asserts every one is rejected with a descriptive error
// instead of a panic, an oversized allocation, or silent acceptance.
func TestLoadModelRejectsCorruptFiles(t *testing.T) {
	m := testMachine(t)
	model, err := Train("synthetic", m, synthTrainingRuns(m, 4, 100e3, 250e3), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	savedV1 := readV1Fixture(t)

	// The pristine bytes must still load (guards against the fixture
	// factory itself breaking the file).
	for _, b := range [][]byte{saved, savedV1} {
		if _, err := LoadModel(bytes.NewReader(b), m); err != nil {
			t.Fatalf("pristine model rejected: %v", err)
		}
	}

	type corruption struct {
		name    string
		mutate  func(mj map[string]any)
		wantErr string
	}
	cases := []corruption{
		{"alpha zero", func(mj map[string]any) { mj["alpha"] = 0.0 }, "invalid alpha"},
		{"alpha one", func(mj map[string]any) { mj["alpha"] = 1.0 }, "invalid alpha"},
		{"alpha negative", func(mj map[string]any) { mj["alpha"] = -0.5 }, "invalid alpha"},
		{"alpha null", func(mj map[string]any) { mj["alpha"] = nil }, "invalid alpha"},
		{"max group size zero", func(mj map[string]any) { mj["maxGroupSize"] = 0 }, "invalid max group size"},
		{"max group size huge", func(mj map[string]any) { mj["maxGroupSize"] = 1 << 24 }, "invalid max group size"},
		{"group size zero", func(mj map[string]any) {
			testableRegion(t, mj)["groupSize"] = 0
		}, "invalid group size"},
		{"group size negative", func(mj map[string]any) {
			testableRegion(t, mj)["groupSize"] = -3
		}, "invalid group size"},
		{"group size above max", func(mj map[string]any) {
			testableRegion(t, mj)["groupSize"] = mj["maxGroupSize"].(float64) + 1
		}, "exceeds max group size"},
		{"negative peak count", func(mj map[string]any) {
			testableRegion(t, mj)["numPeaks"] = -1
		}, "invalid peak count"},
		{"huge peak count", func(mj map[string]any) {
			testableRegion(t, mj)["numPeaks"] = 1 << 20
		}, ""},
		{"negative train windows", func(mj map[string]any) {
			testableRegion(t, mj)["trainWindows"] = -7
		}, "negative train windows"},
		{"ragged mode rows", func(mj map[string]any) {
			reg := testableRegion(t, mj)
			mode := reg["modes"].([]any)[0].(map[string]any)
			ref := mode["ref"].([]any)
			mode["ref"] = ref[:len(ref)-1]
		}, "ragged"},
		{"counts summary empty", func(mj map[string]any) {
			summaryOf(t, mj, "counts")["n"] = 0
		}, "length 0"},
		{"counts summary negative length", func(mj map[string]any) {
			summaryOf(t, mj, "counts")["n"] = -4
		}, "length -4"},
		{"counts summary median below min", func(mj map[string]any) {
			sm := summaryOf(t, mj, "counts")
			sm["median"] = sm["min"].(float64) - 1
		}, "not ordered"},
		{"energies summary max below median", func(mj map[string]any) {
			sm := summaryOf(t, mj, "energies")
			sm["max"] = sm["median"].(float64) / 2
		}, "not ordered"},
		{"energies summary min above max", func(mj map[string]any) {
			sm := summaryOf(t, mj, "energies")
			sm["min"] = sm["max"].(float64) * 2
		}, "not ordered"},
		{"energies summary beyond float64", func(mj map[string]any) {
			summaryOf(t, mj, "energies")["max"] = json.Number("1e400")
		}, "cannot unmarshal"},
		{"unknown region id", func(mj map[string]any) {
			testableRegion(t, mj)["region"] = 9999
		}, "not present in machine"},
		{"duplicate region", func(mj map[string]any) {
			regions := mj["regions"].([]any)
			mj["regions"] = append(regions, regions[0])
		}, "appears twice"},
		{"no regions", func(mj map[string]any) {
			mj["regions"] = []any{}
		}, "no regions"},
	}
	// The pooled reference and the whole count and energy samples exist
	// only in format 1: these cases corrupt the format-1 fixture.
	v1Cases := []corruption{
		{"ragged ref rows", func(mj map[string]any) {
			reg := testableRegion(t, mj)
			ref := reg["ref"].([]any)
			reg["ref"] = ref[:len(ref)-1]
		}, "reference ranks"},
		{"unsorted ref row", func(mj map[string]any) {
			reg := testableRegion(t, mj)
			row := reg["ref"].([]any)[0].([]any)
			if len(row) < 2 {
				t.Skip("ref row too short to unsort")
			}
			row[0], row[len(row)-1] = row[len(row)-1], row[0]
		}, "not sorted"},
		{"unsorted count ref", func(mj map[string]any) {
			reg := testableRegion(t, mj)
			row := reg["countRef"].([]any)
			row[0] = row[len(row)-1].(float64) + 1
		}, "not sorted"},
		{"unsorted energy ref", func(mj map[string]any) {
			reg := testableRegion(t, mj)
			row := reg["energyRef"].([]any)
			row[len(row)-1] = row[0].(float64) - 1
		}, "not sorted"},
	}
	run := func(base []byte, cases []corruption) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				_, err := LoadModel(corruptModelJSON(t, base, tc.mutate), m)
				if err == nil {
					t.Fatal("corrupt model accepted")
				}
				if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("error %q does not mention %q", err, tc.wantErr)
				}
			})
		}
	}
	run(saved, cases)
	run(savedV1, v1Cases)
}

// TestValidateRegionRejectsNonFinite exercises the NaN/Inf checks
// directly: JSON itself cannot encode non-finite numbers, but the
// validator is the last line of defense for any future binary format or
// hand-built region model.
func TestValidateRegionRejectsNonFinite(t *testing.T) {
	// base carries both formats' side data: format 1 validates the
	// pooled ref and the samples, format 2 the summaries.
	base := func() regionModelFile {
		return regionModelFile{
			Region:   1,
			NumPeaks: 1,
			Ref:      [][]float64{{1, 2, 3}},
			Modes: []regionModeFile{
				{Run: 0, Ref: [][]float64{{1, 2, 3}}},
			},
			CountRef:  []float64{1, 2},
			EnergyRef: []float64{1, 2},
			Counts:    &summaryFile{N: 2, Min: 1, Median: 1.5, Max: 2},
			Energies:  &summaryFile{N: 2, Min: 1, Median: 1.5, Max: 2},
			GroupSize: 4,
		}
	}
	if err := validateRegionFile(&regionModelFile{Region: 1, NumPeaks: 1, Ref: [][]float64{{1, 2}}, GroupSize: 4}, 1); err != nil {
		t.Fatalf("valid region rejected: %v", err)
	}
	for _, format := range []int{1, 2} {
		if rf := base(); validateRegionFile(&rf, format) != nil {
			t.Fatalf("valid format-%d region rejected: %v", format, validateRegionFile(&rf, format))
		}
	}
	for _, tc := range []struct {
		name   string
		format int
		mutate func(rf *regionModelFile)
	}{
		{"NaN in ref", 1, func(rf *regionModelFile) { rf.Ref[0][1] = math.NaN() }},
		{"+Inf in ref", 1, func(rf *regionModelFile) { rf.Ref[0][2] = math.Inf(1) }},
		{"-Inf in mode ref", 1, func(rf *regionModelFile) { rf.Modes[0].Ref[0][0] = math.Inf(-1) }},
		{"NaN in countRef", 1, func(rf *regionModelFile) { rf.CountRef[0] = math.NaN() }},
		{"NaN in energyRef", 1, func(rf *regionModelFile) { rf.EnergyRef[1] = math.NaN() }},
		{"-Inf in format-2 mode ref", 2, func(rf *regionModelFile) { rf.Modes[0].Ref[0][0] = math.Inf(-1) }},
		{"NaN counts min", 2, func(rf *regionModelFile) { rf.Counts.Min = math.NaN() }},
		{"NaN counts median", 2, func(rf *regionModelFile) { rf.Counts.Median = math.NaN() }},
		{"+Inf energies max", 2, func(rf *regionModelFile) { rf.Energies.Max = math.Inf(1) }},
		{"-Inf energies min", 2, func(rf *regionModelFile) { rf.Energies.Min = math.Inf(-1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rf := base()
			tc.mutate(&rf)
			if err := validateRegionFile(&rf, tc.format); err == nil {
				t.Error("non-finite reference accepted")
			} else if !strings.Contains(err.Error(), "not finite") {
				t.Errorf("error %q does not mention finiteness", err)
			}
		})
	}
}

// readV1Fixture returns testdata/model_v1.json: a format-1 model of the
// synthetic machine (4 training runs), written by the format-1 Save.
func readV1Fixture(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "model_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// summaryOf returns the named summary object of the first testable
// saved region as a generic JSON object.
func summaryOf(t *testing.T, m map[string]any, name string) map[string]any {
	t.Helper()
	sm, ok := testableRegion(t, m)[name].(map[string]any)
	if !ok {
		t.Fatalf("saved region has no %s summary", name)
	}
	return sm
}

// TestLoadModelFormat1 loads a model file written in format 1 by an
// earlier build. The side samples must come back as their summaries,
// the modes unchanged, and the model must decide a fixed stream exactly
// as the same model saved as format 2 and loaded again.
func TestLoadModelFormat1(t *testing.T) {
	m := testMachine(t)
	raw := readV1Fixture(t)
	v1, err := LoadModel(bytes.NewReader(raw), m)
	if err != nil {
		t.Fatal(err)
	}
	var mf modelFile
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	if mf.Format != 1 {
		t.Fatalf("fixture is format %d, want 1", mf.Format)
	}
	for _, rf := range mf.Regions {
		rm := v1.Regions[rf.Region]
		if rm.Counts != stats.Summarize(rf.CountRef) || rm.Energies != stats.Summarize(rf.EnergyRef) {
			t.Errorf("region %d: summaries %+v %+v do not digest the format-1 samples", rf.Region, rm.Counts, rm.Energies)
		}
		if rm.Counts.N == 0 || len(rm.Modes) != len(rf.Modes) {
			t.Errorf("region %d: %d modes, %d count windows", rf.Region, len(rm.Modes), rm.Counts.N)
		}
	}

	var buf bytes.Buffer
	if err := v1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	var generic map[string]any
	if err := json.Unmarshal(saved, &generic); err != nil {
		t.Fatal(err)
	}
	if generic["format"] != 2.0 {
		t.Errorf("saved file is format %v, want 2", generic["format"])
	}
	for _, r := range generic["regions"].([]any) {
		for _, key := range []string{"ref", "countRef", "energyRef"} {
			if _, ok := r.(map[string]any)[key]; ok {
				t.Errorf("format-2 region still carries %q", key)
			}
		}
	}
	if len(saved) > len(raw)*55/100 {
		t.Errorf("format-2 file is %d bytes, format 1 %d: want at most 55%%", len(saved), len(raw))
	}
	v2, err := LoadModel(bytes.NewReader(saved), m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v1.Regions, v2.Regions) {
		t.Error("format-2 round trip changed the region models")
	}

	r := rand.New(rand.NewSource(31))
	stream := append(synthRun(r, m, 100e3, 250e3), synthRun(r, m, 100e3*1.2, 250e3)...)
	outcomes := func(model *Model) ([]WindowOutcome, []Report) {
		mon, err := NewMonitor(model, DefaultMonitorConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i := range stream {
			mon.Observe(&stream[i])
		}
		return mon.Outcomes, mon.Reports
	}
	o1, r1 := outcomes(v1)
	o2, r2 := outcomes(v2)
	if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(r1, r2) {
		t.Error("format-1 and format-2 models decide the stream differently")
	}
	if len(r1) == 0 {
		t.Error("the stream raised no report; it exercises no rejection")
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	m := testMachine(t)
	if _, err := LoadModel(strings.NewReader("not json"), m); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadModel(strings.NewReader(`{"format":99}`), m); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := LoadModel(strings.NewReader(`{"format":1,"alpha":0.01,"machine":{"nests":2,"regions":5,"blocks":7},"regions":[]}`), m); err == nil {
		t.Error("empty region list accepted")
	}
}
