package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	tk := r.Track("anything")
	if tk.Enabled() {
		t.Error("track from nil recorder reports enabled")
	}
	sp := tk.Start("span")
	sp.End()
	tk.Instant("marker")
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Error("nil recorder reports nonzero counts")
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil recorder WriteChromeTrace: %v", err)
	}
	var tr struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("nil recorder trace is not JSON: %v", err)
	}
	if len(tr.TraceEvents) != 0 {
		t.Errorf("nil recorder trace has %d events, want 0", len(tr.TraceEvents))
	}
}

func TestRecorderSpansAndTrace(t *testing.T) {
	r := NewRecorder()
	tk := r.Track("stage-a")
	if !tk.Enabled() {
		t.Fatal("track not enabled")
	}
	sp := tk.Start("work")
	time.Sleep(time.Millisecond)
	sp.End()
	tk.Instant("marker")
	tk2 := r.Track("stage-b")
	sp = tk2.Start("other")
	sp.End()

	// 2 meta + 2 complete + 1 instant.
	if r.Len() != 5 {
		t.Fatalf("recorded %d events, want 5", r.Len())
	}

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int64          `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q, want ms", trace.DisplayTimeUnit)
	}
	byPh := map[string]int{}
	var sawSpan, sawMeta, sawInstant bool
	for _, e := range trace.TraceEvents {
		byPh[e.Ph]++
		switch {
		case e.Ph == "X" && e.Name == "work":
			sawSpan = true
			if e.Cat != "stage-a" {
				t.Errorf("span cat %q, want stage-a", e.Cat)
			}
			if e.Dur < 0.9e3 { // slept 1ms; dur is in microseconds
				t.Errorf("span dur %g µs, want >= ~1000", e.Dur)
			}
		case e.Ph == "M" && e.Name == "thread_name":
			sawMeta = true
			if e.Args["name"] != "stage-a" && e.Args["name"] != "stage-b" {
				t.Errorf("meta args %v", e.Args)
			}
		case e.Ph == "i":
			sawInstant = true
			if e.S != "t" {
				t.Errorf("instant scope %q, want t", e.S)
			}
		}
		if e.PID != 1 {
			t.Errorf("pid %d, want 1", e.PID)
		}
	}
	if !sawSpan || !sawMeta || !sawInstant {
		t.Errorf("missing event kinds: span=%v meta=%v instant=%v (counts %v)",
			sawSpan, sawMeta, sawInstant, byPh)
	}
}

func TestRecorderCapDrops(t *testing.T) {
	r := NewRecorderCap(3)
	tk := r.Track("t") // 1 meta event
	for i := 0; i < 5; i++ {
		tk.Start("s").End()
	}
	if r.Len() != 3 {
		t.Errorf("len %d, want cap 3", r.Len())
	}
	if r.Dropped() != 3 {
		t.Errorf("dropped %d, want 3", r.Dropped())
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dropped_events") {
		t.Error("trace otherData does not report dropped_events")
	}
}

func TestWriteChromeTraceFile(t *testing.T) {
	r := NewRecorder()
	r.Track("x").Start("y").End()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.WriteChromeTraceFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if _, ok := v["traceEvents"]; !ok {
		t.Error("trace file missing traceEvents")
	}
	if err := r.WriteChromeTraceFile(filepath.Join(path, "nope")); err == nil {
		t.Error("writing under a file path should fail")
	}
}

func TestNilFlightRecorderIsSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(&WindowRecord{Window: 1})
	f.Alarm(1, 0.5, 2, 3, []int{0})
	if f.Recent() != nil || f.Seen() != 0 || f.Alarms() != 0 || f.LastAlarm() != nil {
		t.Error("nil flight recorder not inert")
	}
	b, err := f.LastAlarmJSON()
	if err != nil || strings.TrimSpace(string(b)) != "null" {
		t.Errorf("nil LastAlarmJSON = %q, %v; want null", b, err)
	}
}

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(3)
	scratch := WindowRecord{}
	for i := 0; i < 5; i++ {
		scratch.Window = i
		scratch.Ranks = append(scratch.Ranks[:0], RankKS{Rank: i, Stat: float64(i)})
		scratch.RejectedRanks = append(scratch.RejectedRanks[:0], i)
		f.Record(&scratch)
	}
	if f.Seen() != 5 {
		t.Errorf("seen %d, want 5", f.Seen())
	}
	rec := f.Recent()
	if len(rec) != 3 {
		t.Fatalf("recent len %d, want 3", len(rec))
	}
	for i, want := range []int{2, 3, 4} {
		if rec[i].Window != want {
			t.Errorf("recent[%d].Window = %d, want %d (oldest first)", i, rec[i].Window, want)
		}
		// Deep copy: the scratch record's slices were reused.
		if len(rec[i].Ranks) != 1 || rec[i].Ranks[0].Rank != want {
			t.Errorf("recent[%d].Ranks = %v, want rank %d", i, rec[i].Ranks, want)
		}
		if len(rec[i].RejectedRanks) != 1 || rec[i].RejectedRanks[0] != want {
			t.Errorf("recent[%d].RejectedRanks = %v, want [%d]", i, rec[i].RejectedRanks, want)
		}
	}
	// The ring reuses its slots' slices for later records; a snapshot
	// taken earlier must not change.
	for i := 5; i < 8; i++ {
		scratch.Ranks = append(scratch.Ranks[:0], RankKS{Rank: i})
		scratch.RejectedRanks = append(scratch.RejectedRanks[:0], i)
		f.Record(&scratch)
	}
	for i, want := range []int{2, 3, 4} {
		if len(rec[i].Ranks) != 1 || rec[i].Ranks[0].Rank != want ||
			len(rec[i].RejectedRanks) != 1 || rec[i].RejectedRanks[0] != want {
			t.Errorf("snapshot record %d changed after later records: %+v", i, rec[i])
		}
	}
}

// TestFlightRecorderConcurrentSnapshots records from one goroutine while
// another snapshots the ring, as a served recorder does (run it under
// -race).
func TestFlightRecorderConcurrentSnapshots(t *testing.T) {
	f := NewFlightRecorder(4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rec := WindowRecord{}
		for i := 0; i < 2000; i++ {
			rec.Window = i
			rec.Ranks = append(rec.Ranks[:0], RankKS{Rank: i})
			rec.RejectedRanks = append(rec.RejectedRanks[:0], i)
			f.Record(&rec)
			if i%100 == 99 {
				f.Alarm(i, 0, 0, 0, rec.RejectedRanks)
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		for _, r := range f.Recent() {
			if len(r.Ranks) != 1 || r.Ranks[0].Rank != r.Window ||
				len(r.RejectedRanks) != 1 || r.RejectedRanks[0] != r.Window {
				t.Fatalf("torn record %+v", r)
			}
		}
		if a := f.LastAlarm(); a != nil {
			for _, r := range a.Records {
				if len(r.Ranks) != 1 || r.Ranks[0].Rank != r.Window {
					t.Fatalf("torn alarm record %+v", r)
				}
			}
		}
	}
}

func TestFlightRecorderDefaultDepth(t *testing.T) {
	f := NewFlightRecorder(0)
	for i := 0; i < DefaultFlightDepth+10; i++ {
		f.Record(&WindowRecord{Window: i})
	}
	if got := len(f.Recent()); got != DefaultFlightDepth {
		t.Errorf("default-depth ring holds %d, want %d", got, DefaultFlightDepth)
	}
}

func TestFlightRecorderAlarm(t *testing.T) {
	f := NewFlightRecorder(4)
	if f.LastAlarm() != nil {
		t.Fatal("fresh recorder has an alarm")
	}
	for i := 0; i < 6; i++ {
		f.Record(&WindowRecord{Window: i, Reported: i == 5})
	}
	f.Alarm(5, 1.25, 7, 3, []int{0, 2})
	a := f.LastAlarm()
	if a == nil {
		t.Fatal("no alarm dump")
	}
	if a.Alarm != 1 || a.Window != 5 || a.TimeSec != 1.25 || a.Region != 7 || a.Streak != 3 {
		t.Errorf("alarm header %+v wrong", a)
	}
	if len(a.RejectedRanks) != 2 || a.RejectedRanks[0] != 0 || a.RejectedRanks[1] != 2 {
		t.Errorf("alarm rejected ranks %v, want [0 2]", a.RejectedRanks)
	}
	if len(a.Records) != 4 || a.Records[len(a.Records)-1].Window != 5 {
		t.Errorf("alarm records %d entries ending at window %d; want 4 ending at 5",
			len(a.Records), a.Records[len(a.Records)-1].Window)
	}
	if f.Alarms() != 1 {
		t.Errorf("alarms %d, want 1", f.Alarms())
	}
	b, err := f.LastAlarmJSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded AlarmDump
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("alarm JSON invalid: %v", err)
	}
	if decoded.Window != 5 {
		t.Errorf("decoded alarm window %d, want 5", decoded.Window)
	}

	// A second alarm replaces the first.
	f.Alarm(9, 2, 7, 4, nil)
	if a2 := f.LastAlarm(); a2.Alarm != 2 || a2.Window != 9 {
		t.Errorf("second alarm %+v", f.LastAlarm())
	}
}

func TestCopyEvidence(t *testing.T) {
	src := WindowRecord{
		Window: 3, Region: 9, Transition: TransSwitch, // identity: must NOT copy
		Tested: true, GroupSize: 5, Burst: true, BestMode: 2, RejFrac: 0.5,
		CountOut:      true,
		Ranks:         []RankKS{{Rank: 1, Stat: 0.9, Crit: 0.5, Rejected: true}},
		RejectedRanks: []int{1},
	}
	dst := WindowRecord{Window: 7, Region: 1, Transition: TransStay}
	dst.CopyEvidence(&src)
	if dst.Window != 7 || dst.Region != 1 || dst.Transition != TransStay {
		t.Errorf("CopyEvidence touched identity fields: %+v", dst)
	}
	if !dst.Tested || dst.GroupSize != 5 || !dst.Burst || dst.BestMode != 2 ||
		dst.RejFrac != 0.5 || !dst.CountOut {
		t.Errorf("evidence fields not copied: %+v", dst)
	}
	if len(dst.Ranks) != 1 || dst.Ranks[0] != src.Ranks[0] {
		t.Errorf("ranks not copied: %v", dst.Ranks)
	}
	// Deep copy: mutating src must not affect dst.
	src.Ranks[0].Stat = 0
	if dst.Ranks[0].Stat != 0.9 {
		t.Error("CopyEvidence aliased the Ranks slice")
	}
}
