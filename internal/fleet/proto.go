// Package fleet is EDDIE's multi-device monitoring server: one process
// hosting one streaming detector session per connected device, so a
// single detection backend watches a fleet of monitored endpoints (the
// scalable deployment the ROADMAP's north star and the synthetic-
// fingerprinting line of work describe).
//
// Devices speak a small length-prefixed TCP protocol: a JSON hello
// naming the device and the workload/model, then raw float64 sample
// frames; anomaly reports stream back as JSON events. Sessions load
// trained models through core.LoadModel (train once, monitor from any
// process), run under bounded concurrency with per-frame read deadlines
// and a backpressure cap on buffered samples, and drain gracefully on
// shutdown. Per-device counters land in a shared metrics.Registry
// (Prometheus-ready) and each session keeps its own flight recorder.
package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Frame types. A frame is one byte of type, four bytes of big-endian
// payload length, then the payload. Client-to-server types sit below
// 0x10, server-to-client types at or above it.
const (
	// FrameHello opens a session: a JSON Hello payload.
	FrameHello byte = 0x01
	// FrameSamples carries little-endian float64 receiver samples.
	FrameSamples byte = 0x02
	// FrameBye asks the server to drain the session and answer with a
	// FrameSummary.
	FrameBye byte = 0x03
	// FrameLoadQuery asks a backend for its live load (empty payload);
	// the answer is a FrameLoadReport. The coordinator's health probes
	// and fleet-listing aggregation speak this control side of the
	// protocol instead of opening a detector session.
	FrameLoadQuery byte = 0x04
	// FrameFleetQuery asks a backend for one page of its session
	// listing: a JSON FleetQuery payload, answered by a FrameFleetPage.
	FrameFleetQuery byte = 0x05

	// FrameWelcome acknowledges a hello: a JSON Welcome payload.
	FrameWelcome byte = 0x10
	// FrameReport is one anomaly report: a JSON Report payload.
	FrameReport byte = 0x11
	// FrameSummary closes a session cleanly: a JSON Summary payload.
	FrameSummary byte = 0x12
	// FrameRedirect answers a hello at a coordinator: a JSON Redirect
	// payload naming the backend that owns the device. Only sent to
	// clients that announced ProtoRedirect in their hello; the sender
	// closes the connection afterwards and the client re-dials the
	// named backend.
	FrameRedirect byte = 0x13
	// FrameLoadReport answers a FrameLoadQuery: a JSON LoadReport
	// payload.
	FrameLoadReport byte = 0x14
	// FrameFleetPage answers a FrameFleetQuery: a JSON FleetPage
	// payload.
	FrameFleetPage byte = 0x15
	// FrameError reports a fatal session error: a JSON ErrorInfo
	// payload. The server closes the connection after sending it.
	FrameError byte = 0x1f
)

// ProtoRedirect is the protocol feature level at which a client accepts
// FrameRedirect answers to its hello. Level 0 (the field absent from
// the wire) is the original protocol: a hello against a plain backend
// is answered with a welcome either way, so old clients against old
// servers — and old clients against new backends — stay bit-identical.
const ProtoRedirect = 1

// DefaultMaxFrameBytes caps one frame's payload (2^22 bytes = 512k
// samples); oversized frames are a protocol error, not an allocation.
const DefaultMaxFrameBytes = 1 << 22

// frameHeaderLen is the wire size of a frame header.
const frameHeaderLen = 5

// Hello is the session-opening payload: which device is connecting and
// which trained model should monitor it.
type Hello struct {
	// Device names the connecting device; it labels the per-device
	// metrics, so it is restricted to [A-Za-z0-9._-]{1,64}.
	Device string `json:"device"`
	// Workload names the trained model to load (a workload name, not a
	// path: the server resolves it against its model source).
	Workload string `json:"workload"`
	// DisableDCBlock requests the raw-sample path (for pre-detrended
	// captures; mirrors stream.Config.DisableDCBlock).
	DisableDCBlock bool `json:"disableDCBlock,omitempty"`
	// Proto announces the client's protocol feature level (see
	// ProtoRedirect). Zero is omitted from the wire, so a hello that
	// uses no new feature marshals byte-identically to the original
	// protocol; servers ignore levels they do not know.
	Proto int `json:"proto,omitempty"`
}

// Validate checks the hello's names: device and workload are each 1-64
// characters of [A-Za-z0-9._-]. Backends and coordinators refuse a
// hello that fails it, so a name is judged by one rule wherever the
// device dials.
func (h Hello) Validate() error {
	if !validName(h.Device) {
		return errors.New("invalid device name (want 1-64 chars of [A-Za-z0-9._-])")
	}
	if !validName(h.Workload) {
		return errors.New("invalid workload name (want 1-64 chars of [A-Za-z0-9._-])")
	}
	return nil
}

// Redirect is the payload of a FrameRedirect: which backend owns the
// device that said hello, and where to re-dial it.
type Redirect struct {
	// Addr is the owning backend's device-facing listen address.
	Addr string `json:"addr"`
	// Backend labels the backend for logs and metrics.
	Backend string `json:"backend,omitempty"`
}

// LoadReport is the payload of a FrameLoadReport: a backend's live load,
// consumed by the coordinator's health probes.
type LoadReport struct {
	// Active and Max are the live session count and the admission cap.
	Active int `json:"active"`
	Max    int `json:"max"`
	// Draining is true once a graceful shutdown has been requested.
	Draining bool `json:"draining"`
	// QueueDepth is the number of sessions waiting for a processor
	// across all shards (scheduling pressure, not byte backlog).
	QueueDepth int `json:"queueDepth"`
	// P99Ms is the worst per-shard p99 frame-to-verdict latency in
	// milliseconds (0 before any completed turn).
	P99Ms float64 `json:"p99Ms"`
	// Status is the node's health verdict, Server.HealthStatus
	// ("ready", "degraded", "overloaded", "draining"; "ready" when no
	// SLO tracker is wired): the same verdict its /eddie/healthz serves.
	Status string `json:"status"`
}

// FleetQuery is the payload of a FrameFleetQuery: one page of the
// backend's session listing.
type FleetQuery struct {
	Offset int `json:"offset"`
	Limit  int `json:"limit"`
}

// FleetPage is the payload of a FrameFleetPage.
type FleetPage struct {
	Sessions []SessionInfo `json:"sessions"`
	Total    int           `json:"total"`
	Active   int           `json:"active"`
}

// Welcome acknowledges a hello and describes the session's front end.
type Welcome struct {
	Session    int64   `json:"session"`
	Device     string  `json:"device"`
	Workload   string  `json:"workload"`
	WindowSize int     `json:"windowSize"`
	HopSize    int     `json:"hopSize"`
	SampleRate float64 `json:"sampleRate"`
	Regions    int     `json:"regions"`
}

// Report is one anomaly report event streamed back to the device.
type Report struct {
	Device  string  `json:"device"`
	Session int64   `json:"session"`
	Window  int     `json:"window"`
	TimeSec float64 `json:"timeSec"`
	Region  int     `json:"region"`
}

// Summary answers a FrameBye: the session's final counters.
type Summary struct {
	Session   int64 `json:"session"`
	Samples   int64 `json:"samples"`
	Sanitized int64 `json:"sanitized"`
	Windows   int   `json:"windows"`
	Reports   int   `json:"reports"`
}

// ErrorInfo is the payload of a FrameError.
type ErrorInfo struct {
	Error string `json:"error"`
}

// WriteFrame writes one protocol frame. It is exported for protocol-
// level tooling (the fleet-load benchmark drives raw connections to
// timestamp individual report arrivals); applications use Client.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	return writeFrame(w, typ, payload)
}

// ReadFrame reads one protocol frame, rejecting payloads larger than
// maxLen. Exported for protocol-level tooling; applications use Client.
func ReadFrame(r io.Reader, maxLen int) (typ byte, payload []byte, err error) {
	return readFrame(r, maxLen)
}

// writeFrame writes one frame. payload may be nil (length 0).
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > DefaultMaxFrameBytes {
		return fmt.Errorf("fleet: payload of %d bytes exceeds frame limit %d",
			len(payload), DefaultMaxFrameBytes)
	}
	var hdr [frameHeaderLen]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame, rejecting payloads larger than maxLen.
func readFrame(r io.Reader, maxLen int) (typ byte, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if int64(n) > int64(maxLen) {
		return 0, nil, fmt.Errorf("fleet: frame of %d bytes exceeds limit %d", n, maxLen)
	}
	if n == 0 {
		return hdr[0], nil, nil
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("fleet: truncated frame: %w", err)
	}
	return hdr[0], payload, nil
}

// readFrameInto reads one frame like readFrame, but into a reusable
// scratch buffer: the returned payload aliases the returned scratch and
// is only valid until the next call. Server-side readers use it so a
// steady-state session reads every frame into memory it already owns.
func readFrameInto(r io.Reader, maxLen int, scratch []byte) (typ byte, payload, newScratch []byte, err error) {
	// The header is read into the scratch buffer too: a local array
	// escapes through the io.Reader call and would heap-allocate on
	// every frame.
	if cap(scratch) < frameHeaderLen {
		scratch = make([]byte, frameHeaderLen)
	}
	hdr := scratch[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, scratch, err
	}
	typ = hdr[0]
	n := int(binary.BigEndian.Uint32(hdr[1:]))
	if int64(n) > int64(maxLen) {
		return 0, nil, scratch, fmt.Errorf("fleet: frame of %d bytes exceeds limit %d", n, maxLen)
	}
	if n == 0 {
		return typ, nil, scratch, nil
	}
	if cap(scratch) < n {
		scratch = make([]byte, n)
	}
	payload = scratch[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, scratch, fmt.Errorf("fleet: truncated frame: %w", err)
	}
	return typ, payload, scratch, nil
}

// EncodeSamples renders samples as a FrameSamples payload (little-endian
// IEEE 754 doubles).
func EncodeSamples(samples []float64) []byte {
	out := make([]byte, 8*len(samples))
	for i, s := range samples {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(s))
	}
	return out
}

// DecodeSamples parses a FrameSamples payload into dst (reused when it
// has capacity). The payload length must be a multiple of 8.
func DecodeSamples(payload []byte, dst []float64) ([]float64, error) {
	if len(payload)%8 != 0 {
		return nil, fmt.Errorf("fleet: samples payload of %d bytes is not a multiple of 8", len(payload))
	}
	n := len(payload) / 8
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return dst, nil
}

// validName reports whether s is a safe device/session label:
// 1..64 characters of [A-Za-z0-9._-]. Device names become metric label
// values and appear in logs, so the alphabet is locked down (no path
// separators, no format-string surprises, bounded cardinality per
// device).
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
