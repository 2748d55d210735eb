package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Fsync policies for the journal. The policy trades alarm durability
// against append latency; "interval" is the deployment default (at most
// FsyncInterval of events at risk on power loss, no fsync on the append
// path).
const (
	// FsyncAlways syncs after every append: nothing is ever lost, each
	// append pays a disk flush.
	FsyncAlways = "always"
	// FsyncInterval syncs from a background ticker.
	FsyncInterval = "interval"
	// FsyncNever leaves flushing to the OS page cache.
	FsyncNever = "never"
)

// JournalConfig configures a durable event journal.
type JournalConfig struct {
	// Dir is the journal directory (created if missing). Required.
	Dir string
	// MaxFileBytes rotates to a new numbered file when the current one
	// exceeds this size (default 64 MiB).
	MaxFileBytes int64
	// Fsync is one of FsyncAlways, FsyncInterval, FsyncNever (default
	// FsyncInterval).
	Fsync string
	// FsyncInterval is the background sync period under FsyncInterval
	// (default 1s).
	FsyncInterval time.Duration
}

func (c JournalConfig) withDefaults() (JournalConfig, error) {
	if c.Dir == "" {
		return c, fmt.Errorf("journal: Dir is required")
	}
	if c.MaxFileBytes <= 0 {
		c.MaxFileBytes = 64 << 20
	}
	switch c.Fsync {
	case "":
		c.Fsync = FsyncInterval
	case FsyncAlways, FsyncInterval, FsyncNever:
	default:
		return c, fmt.Errorf("journal: unknown fsync policy %q", c.Fsync)
	}
	if c.FsyncInterval <= 0 {
		c.FsyncInterval = time.Second
	}
	return c, nil
}

// JournalEvent is one journal line. Lifecycle events carry only the
// envelope; alarm events attach the full AlarmDump so the journal is a
// durable, audit-grade record of every alarm's evidence.
type JournalEvent struct {
	// Seq is the journal-assigned sequence number, monotone across
	// rotations within one process.
	Seq int64 `json:"seq"`
	// TimeUnixNano is the append wall-clock time.
	TimeUnixNano int64 `json:"t"`
	// Type is the event kind: "server_start", "server_stop", "connect",
	// "drain", "disconnect", "backpressure", "alarm".
	Type string `json:"type"`
	// Device / Session / Shard locate the event's origin in the fleet.
	Device  string `json:"device,omitempty"`
	Session int64  `json:"session,omitempty"`
	Shard   string `json:"shard,omitempty"`
	// Detail is free-form context (an error string, a drain reason).
	Detail string `json:"detail,omitempty"`
	// Alarm is the evidence package of an "alarm" event.
	Alarm *AlarmDump `json:"alarm,omitempty"`
}

// Journal is an append-only JSONL write-ahead log of fleet events:
// size-rotated numbered files, a configurable fsync policy, and
// crash-safe recovery (RecoverJournal) that tolerates a torn final
// line. A nil *Journal is the disabled state — every method no-ops —
// so callers thread it unconditionally.
//
// The lifecycle-event path (Event) is allocation-free after warm-up: it
// hand-encodes the line into a reusable buffer, because the fleet emits
// one per session transition and a 100k-session drain would otherwise
// allocate 100k JSON encoders. Alarm appends (AppendEvent) marshal with
// encoding/json — alarms are rare and carry nested evidence — and hand
// the encoded line back, so a live stream can publish the same bytes
// without encoding the event again.
type Journal struct {
	cfg JournalConfig

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	size    int64
	fileIdx int
	seq     int64
	buf     []byte // reusable line buffer for Event
	dirty   bool   // writes since last sync
	closed  bool

	stop chan struct{}
	done chan struct{}
}

// journalFileName renders the numbered journal file name.
func journalFileName(idx int) string {
	return fmt.Sprintf("journal-%06d.jsonl", idx)
}

// journalFileIndex parses a journal file name back to its index,
// returning -1 for non-journal files.
func journalFileIndex(name string) int {
	var idx int
	if _, err := fmt.Sscanf(name, "journal-%06d.jsonl", &idx); err != nil {
		return -1
	}
	if journalFileName(idx) != name {
		return -1
	}
	return idx
}

// OpenJournal opens (creating if needed) a journal in cfg.Dir. It never
// appends to an existing file — the previous file's tail may be torn
// from a crash — and instead starts a fresh file numbered one past the
// highest present.
func OpenJournal(cfg JournalConfig) (*Journal, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	next := 0
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	for _, e := range entries {
		if idx := journalFileIndex(e.Name()); idx >= next {
			next = idx + 1
		}
	}
	j := &Journal{
		cfg:     cfg,
		fileIdx: next,
		buf:     make([]byte, 0, 512),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if err := j.openFileLocked(); err != nil {
		return nil, err
	}
	if cfg.Fsync == FsyncInterval {
		go j.syncLoop()
	} else {
		close(j.done)
	}
	return j, nil
}

// openFileLocked opens the current numbered file for writing. Caller
// holds j.mu (or has exclusive access during construction).
func (j *Journal) openFileLocked() error {
	f, err := os.OpenFile(filepath.Join(j.cfg.Dir, journalFileName(j.fileIdx)),
		os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.f = f
	j.w = bufio.NewWriterSize(f, 1<<16)
	j.size = 0
	return nil
}

// syncLoop is the FsyncInterval background flusher.
func (j *Journal) syncLoop() {
	defer close(j.done)
	t := time.NewTicker(j.cfg.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			j.Sync()
		case <-j.stop:
			return
		}
	}
}

// Event appends one lifecycle event, stamping its sequence number and
// time. Allocation-free after warm-up (strings are hand-escaped into a
// reusable buffer). Safe on a nil journal.
func (j *Journal) Event(typ, device string, session int64, shard, detail string) {
	if j == nil {
		return
	}
	now := time.Now().UnixNano()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	j.seq++
	b := j.buf[:0]
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, j.seq, 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, now, 10)
	b = append(b, `,"type":`...)
	b = appendJSONString(b, typ)
	if device != "" {
		b = append(b, `,"device":`...)
		b = appendJSONString(b, device)
	}
	if session != 0 {
		b = append(b, `,"session":`...)
		b = strconv.AppendInt(b, session, 10)
	}
	if shard != "" {
		b = append(b, `,"shard":`...)
		b = appendJSONString(b, shard)
	}
	if detail != "" {
		b = append(b, `,"detail":`...)
		b = appendJSONString(b, detail)
	}
	b = append(b, '}', '\n')
	j.buf = b
	j.appendLocked(b)
}

// AppendEvent appends an arbitrary event (the alarm path), stamping Seq
// and TimeUnixNano in place. It returns the JSON line it wrote, without
// the trailing newline (nil on a nil or closed journal, when nothing is
// written). The journal keeps no reference to the returned bytes.
func (j *Journal) AppendEvent(ev *JournalEvent) []byte {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.seq++
	ev.Seq = j.seq
	if ev.TimeUnixNano == 0 {
		ev.TimeUnixNano = time.Now().UnixNano()
	}
	line, err := json.Marshal(ev)
	if err != nil {
		// Marshal of JournalEvent cannot fail (fixed shape, no cycles);
		// drop the event rather than wedge the caller.
		return nil
	}
	j.appendLocked(append(line, '\n'))
	return line
}

// appendLocked writes one framed line, rotating and syncing per policy.
// Caller holds j.mu.
func (j *Journal) appendLocked(line []byte) {
	if j.size+int64(len(line)) > j.cfg.MaxFileBytes && j.size > 0 {
		j.w.Flush()
		if j.cfg.Fsync != FsyncNever {
			j.f.Sync()
		}
		j.f.Close()
		j.fileIdx++
		if err := j.openFileLocked(); err != nil {
			// Disk trouble mid-run: mark closed so later appends no-op
			// instead of nil-dereferencing.
			j.closed = true
			return
		}
	}
	j.w.Write(line)
	j.size += int64(len(line))
	j.dirty = true
	if j.cfg.Fsync == FsyncAlways {
		j.w.Flush()
		j.f.Sync()
		j.dirty = false
	}
}

// Sync flushes buffered lines to the OS and, unless the policy is
// FsyncNever, to stable storage. Safe on a nil journal.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.closed || !j.dirty {
		return nil
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	j.dirty = false
	if j.cfg.Fsync == FsyncNever {
		return nil
	}
	return j.f.Sync()
}

// Seq returns the last assigned sequence number.
func (j *Journal) Seq() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Close flushes, syncs and closes the journal. Further appends no-op.
// Safe on a nil journal and idempotent.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	err := j.syncLocked()
	j.closed = true
	cerr := j.f.Close()
	j.mu.Unlock()
	close(j.stop)
	<-j.done
	if err == nil {
		err = cerr
	}
	return err
}

// appendJSONString appends s as a JSON string literal. It emits only
// escapes valid in RFC 8259 JSON (strconv.AppendQuote would produce
// Go-style \x escapes for some bytes). Allocation-free when b has
// capacity.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c >= 0x20:
			b = append(b, c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c == '\t':
			b = append(b, '\\', 't')
		default:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	return append(b, '"')
}

// RecoveredJournal is the result of replaying a journal directory.
type RecoveredJournal struct {
	// Events holds every intact event, in file-then-line order.
	Events []JournalEvent
	// Alarms collects the AlarmDumps of the "alarm" events, in order —
	// the durable mirror of what the flight recorders fired live.
	Alarms []*AlarmDump
	// Files is how many journal files were read.
	Files int
	// CorruptLines counts undecodable non-final lines (bit rot,
	// concurrent truncation); they are skipped, not fatal.
	CorruptLines int
	// TruncatedTail is true when the last file's final line was torn
	// (no trailing newline or undecodable) — the expected signature of
	// a crash mid-append.
	TruncatedTail bool
}

// RecoverJournal replays every journal file in dir, oldest first,
// tolerating a torn final line and skipping corrupt interior lines.
// A missing directory recovers to an empty journal.
func RecoverJournal(dir string) (*RecoveredJournal, error) {
	rec := &RecoveredJournal{}
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return rec, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal recover: %w", err)
	}
	var idxs []int
	for _, e := range entries {
		if idx := journalFileIndex(e.Name()); idx >= 0 {
			idxs = append(idxs, idx)
		}
	}
	sort.Ints(idxs)
	for n, idx := range idxs {
		last := n == len(idxs)-1
		if err := recoverFile(filepath.Join(dir, journalFileName(idx)), last, rec); err != nil {
			return nil, err
		}
		rec.Files++
	}
	return rec, nil
}

// recoverFile replays one journal file into rec. lastFile marks the
// final (possibly torn) file.
func recoverFile(path string, lastFile bool, rec *RecoveredJournal) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("journal recover: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		line, err := r.ReadBytes('\n')
		torn := err == io.EOF && len(line) > 0 // no trailing newline
		if len(line) > 0 {
			var ev JournalEvent
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				if torn || (err == io.EOF && lastFile) {
					// A torn or trailing-garbage final line in the last
					// file is the crash signature: drop it silently.
					rec.TruncatedTail = true
				} else {
					rec.CorruptLines++
				}
			} else {
				if torn {
					// Complete JSON without the newline frame: the crash
					// hit between payload and frame. The event is intact —
					// keep it, but still flag the tail.
					rec.TruncatedTail = true
				}
				rec.Events = append(rec.Events, ev)
				if ev.Type == "alarm" && ev.Alarm != nil {
					rec.Alarms = append(rec.Alarms, ev.Alarm)
				}
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("journal recover: %w", err)
		}
	}
}
