package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"eddie/internal/allocguard"
)

func TestJournalAppendAndRecover(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	j.Event("server_start", "", 0, "", "")
	j.Event("connect", "dev-1", 7, "s03", "")
	j.Event("backpressure", "dev-1", 7, "s03", "inbox full")
	dump := &AlarmDump{
		Alarm: 1, Window: 42, TimeSec: 1.75, Region: 3, Streak: 5,
		RejectedRanks: []int{0, 2},
		Records: []WindowRecord{{
			Window: 42, TimeSec: 1.75, Region: 3, Tested: true,
			GroupSize: 8, CAlpha: 1.36, BestMode: 1, RejFrac: 0.5,
			Ranks:         []RankKS{{Rank: 0, Stat: 0.9, Crit: 0.4, Rejected: true}},
			RejectedRanks: []int{0, 2}, Rejected: true, Streak: 5,
			Transition: TransStay, SwitchTo: -1, Reported: true,
		}},
	}
	alarm := &JournalEvent{Type: "alarm", Device: "dev-1", Session: 7, Shard: "s03", Alarm: dump}
	line := j.AppendEvent(alarm)
	if alarm.Seq != 4 {
		t.Fatalf("alarm seq = %d, want 4", alarm.Seq)
	}
	j.Event("disconnect", "dev-1", 7, "s03", "EOF")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := RecoverJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Files != 1 || rec.CorruptLines != 0 || rec.TruncatedTail {
		t.Fatalf("recovery stats: %+v", rec)
	}
	if len(rec.Events) != 5 {
		t.Fatalf("recovered %d events, want 5", len(rec.Events))
	}
	types := make([]string, len(rec.Events))
	for i, ev := range rec.Events {
		types[i] = ev.Type
		if ev.Seq != int64(i+1) {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, i+1)
		}
		if ev.TimeUnixNano == 0 {
			t.Errorf("event %d missing timestamp", i)
		}
	}
	want := []string{"server_start", "connect", "backpressure", "alarm", "disconnect"}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("event types %v, want %v", types, want)
	}
	if ev := rec.Events[2]; ev.Device != "dev-1" || ev.Session != 7 || ev.Shard != "s03" || ev.Detail != "inbox full" {
		t.Errorf("backpressure envelope: %+v", ev)
	}
	// The recovered alarm round-trips bit-identically: re-marshaling it
	// matches marshaling the live dump.
	if len(rec.Alarms) != 1 {
		t.Fatalf("recovered %d alarms, want 1", len(rec.Alarms))
	}
	liveJSON, _ := json.Marshal(dump)
	recJSON, _ := json.Marshal(rec.Alarms[0])
	if string(liveJSON) != string(recJSON) {
		t.Errorf("alarm dump not bit-identical after recovery:\nlive: %s\nrec:  %s", liveJSON, recJSON)
	}
	// The line AppendEvent hands back is the alarm's line in the file,
	// byte for byte, minus the newline.
	raw, err := os.ReadFile(filepath.Join(dir, journalFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(string(raw), "\n"); len(lines) < 4 || lines[3] != string(line) {
		t.Errorf("AppendEvent returned %q, journal line 4 is %q", line, lines[3])
	}
}

func TestJournalRotation(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(JournalConfig{Dir: dir, MaxFileBytes: 256, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		j.Event("connect", "device-with-a-long-name", int64(i+1), "s00", "")
	}
	j.Close()
	entries, _ := os.ReadDir(dir)
	if len(entries) < 2 {
		t.Fatalf("expected rotation to produce multiple files, got %d", len(entries))
	}
	rec, err := RecoverJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) != 50 {
		t.Fatalf("recovered %d events across %d files, want 50", len(rec.Events), rec.Files)
	}
	for i, ev := range rec.Events {
		if ev.Seq != int64(i+1) {
			t.Fatalf("seq order broken at %d: %d", i, ev.Seq)
		}
	}
}

// TestJournalNeverAppendsToOldFile: reopening a journal directory
// starts a fresh numbered file (the old tail may be torn).
func TestJournalNeverAppendsToOldFile(t *testing.T) {
	dir := t.TempDir()
	j1, _ := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	j1.Event("server_start", "", 0, "", "")
	j1.Close()
	j2, _ := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	j2.Event("server_start", "", 0, "", "")
	j2.Close()
	entries, _ := os.ReadDir(dir)
	if len(entries) != 2 {
		t.Fatalf("expected 2 files after reopen, got %d", len(entries))
	}
	rec, _ := RecoverJournal(dir)
	if len(rec.Events) != 2 || rec.Files != 2 {
		t.Fatalf("recovery: %+v", rec)
	}
}

func TestJournalRecoverTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	j.Event("connect", "a", 1, "s00", "")
	j.Event("connect", "b", 2, "s00", "")
	j.Close()
	// Tear the final line mid-payload, as a crash during append would.
	path := filepath.Join(dir, journalFileName(0))
	b, _ := os.ReadFile(path)
	if err := os.WriteFile(path, b[:len(b)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.TruncatedTail {
		t.Error("truncated tail not flagged")
	}
	if len(rec.Events) != 1 || rec.Events[0].Device != "a" {
		t.Fatalf("recovered %d events, want the 1 intact one", len(rec.Events))
	}
	if rec.CorruptLines != 0 {
		t.Errorf("torn tail miscounted as corruption: %d", rec.CorruptLines)
	}
}

func TestJournalRecoverCorruptInterior(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	j.Event("connect", "a", 1, "s00", "")
	j.Event("connect", "b", 2, "s00", "")
	j.Event("connect", "c", 3, "s00", "")
	j.Close()
	path := filepath.Join(dir, journalFileName(0))
	b, _ := os.ReadFile(path)
	lines := strings.SplitAfter(string(b), "\n")
	lines[1] = "{garbage###\n"
	os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644)
	rec, err := RecoverJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CorruptLines != 1 || len(rec.Events) != 2 || rec.TruncatedTail {
		t.Fatalf("recovery: corrupt=%d events=%d torn=%v, want 1/2/false",
			rec.CorruptLines, len(rec.Events), rec.TruncatedTail)
	}
}

func TestJournalRecoverMissingDir(t *testing.T) {
	rec, err := RecoverJournal(filepath.Join(t.TempDir(), "nope"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) != 0 || rec.Files != 0 {
		t.Fatalf("missing dir recovery: %+v", rec)
	}
}

func TestJournalNilAndClosed(t *testing.T) {
	var j *Journal
	j.Event("connect", "a", 1, "", "") // no-op, no panic
	if j.AppendEvent(&JournalEvent{Type: "alarm"}) != nil {
		t.Error("nil AppendEvent returned a line")
	}
	if j.Sync() != nil || j.Close() != nil || j.Seq() != 0 {
		t.Error("nil journal methods not no-ops")
	}

	dir := t.TempDir()
	real, _ := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	real.Close()
	real.Event("connect", "a", 1, "", "") // closed: dropped
	if real.AppendEvent(&JournalEvent{Type: "alarm"}) != nil {
		t.Error("closed AppendEvent returned a line")
	}
	if err := real.Close(); err != nil { // idempotent
		t.Error(err)
	}
	rec, _ := RecoverJournal(dir)
	if len(rec.Events) != 0 {
		t.Error("closed journal accepted an event")
	}
}

func TestJournalConfigValidation(t *testing.T) {
	if _, err := OpenJournal(JournalConfig{}); err == nil {
		t.Error("empty Dir accepted")
	}
	if _, err := OpenJournal(JournalConfig{Dir: t.TempDir(), Fsync: "sometimes"}); err == nil {
		t.Error("bad fsync policy accepted")
	}
}

func TestJournalFsyncPolicies(t *testing.T) {
	for _, policy := range []string{FsyncAlways, FsyncInterval, FsyncNever} {
		dir := t.TempDir()
		j, err := OpenJournal(JournalConfig{Dir: dir, Fsync: policy, FsyncInterval: 10 * time.Millisecond})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		j.Event("connect", "dev", 1, "s00", "")
		if policy == FsyncInterval {
			time.Sleep(50 * time.Millisecond) // let the ticker flush
		}
		if err := j.Close(); err != nil {
			t.Fatalf("%s: close: %v", policy, err)
		}
		rec, _ := RecoverJournal(dir)
		if len(rec.Events) != 1 {
			t.Fatalf("%s: recovered %d events, want 1", policy, len(rec.Events))
		}
	}
}

func TestAppendJSONString(t *testing.T) {
	for in, want := range map[string]string{
		"plain":       `"plain"`,
		`q"uote`:      `"q\"uote"`,
		"back\\slash": `"back\\slash"`,
		"new\nline":   `"new\nline"`,
		"tab\tcr\r":   `"tab\tcr\r"`,
		"ctl\x01":     `"ctl\u0001"`,
		"utf8 ✓":      `"utf8 ✓"`,
	} {
		if got := string(appendJSONString(nil, in)); got != want {
			t.Errorf("appendJSONString(%q) = %s, want %s", in, got, want)
		}
		// Output must be valid JSON decoding back to the input.
		var back string
		if err := json.Unmarshal(appendJSONString(nil, in), &back); err != nil || back != in {
			t.Errorf("appendJSONString(%q) does not round-trip: %v %q", in, err, back)
		}
	}
}

// TestJournalEventZeroAlloc is the alloc gate for the lifecycle-event
// path (run by make obs-bench): after warm-up, Event must not allocate.
func TestJournalEventZeroAlloc(t *testing.T) {
	j, err := OpenJournal(JournalConfig{Dir: t.TempDir(), Fsync: FsyncNever,
		MaxFileBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Event("connect", "device-0001", 1, "s00", "") // warm the line buffer
	allocguard.Zero(t, "Journal.Event", 10, 100, func(int) {
		j.Event("connect", "device-0001", 1, "s00", "")
	})
}

func BenchmarkJournalEvent(b *testing.B) {
	j, err := OpenJournal(JournalConfig{Dir: b.TempDir(), Fsync: FsyncNever,
		MaxFileBytes: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Event("connect", "device-0001", 1, "s00", "")
	}
}

func BenchmarkJournalAppendAlarm(b *testing.B) {
	j, err := OpenJournal(JournalConfig{Dir: b.TempDir(), Fsync: FsyncNever,
		MaxFileBytes: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	dump := &AlarmDump{Alarm: 1, Window: 42, Region: 3, Streak: 5,
		RejectedRanks: []int{0, 2},
		Records: []WindowRecord{{Window: 42, Region: 3, Tested: true,
			Ranks: []RankKS{{Rank: 0, Stat: 0.9, Crit: 0.4, Rejected: true}}}}}
	ev := JournalEvent{Type: "alarm", Device: "dev-1", Session: 7, Shard: "s03", Alarm: dump}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := ev
		j.AppendEvent(&e)
	}
}
