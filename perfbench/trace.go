package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"eddie/internal/obs"
)

// tracer records the benchmark's own spans around calls into the
// program's layers. Spans stay in memory until the run ends. A nil
// *tracer records nothing, so the timed (untraced) passes share the
// traced code path at the cost of a nil check.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
}

// span is one timed call. parent is the index of the enclosing span
// (-1 for a root); every span of one pass shares its root.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open)
	t.spans[t.open[n-1]].end = time.Since(t.t0)
	t.open = t.open[:n-1]
}

// layerTimes sums self time per span name: a span's duration minus the
// part of it covered by its child spans (children of one span never
// overlap — the benchmark drives each layer from one goroutine).
func (t *tracer) layerTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.name] += s.end - s.start - child[i]
	}
	return out
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// count returns how many spans carry the given name.
func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.name == name {
			n++
		}
	}
	return n
}

// recorderSpans reads back the spans the program recorded on an
// obs.Recorder (the stream detector's and monitor's stage spans),
// summed per "track/name", with their counts.
func recorderSpans(r *obs.Recorder) (map[string]time.Duration, map[string]int, error) {
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		return nil, nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, nil, err
	}
	if d, ok := doc.OtherData["dropped_events"]; ok {
		return nil, nil, fmt.Errorf("trace recorder dropped %v events", d)
	}
	sum := map[string]time.Duration{}
	n := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		k := e.Cat + "/" + e.Name
		sum[k] += time.Duration(e.Dur * 1e3)
		n[k]++
	}
	return sum, n, nil
}
