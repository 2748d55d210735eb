package fleet

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"
)

// Client is a minimal fleet-protocol device client: it opens a session,
// streams sample frames, and collects the reports the server sends
// back. It doubles as the reference implementation of the protocol for
// third-party device firmware.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	timeout time.Duration
	welcome Welcome
	reports []Report
	closed  bool
}

// DialTimeout is the default per-operation client deadline.
const DialTimeout = 30 * time.Second

// ClientConfig tunes a client's timeouts. The zero value reproduces
// Dial's defaults. The dial and I/O deadlines are separate knobs: a
// connect should fail fast, while a send to a backpressured server may
// legitimately block far longer than any sane dial bound (the old
// single hardcoded DialTimeout served as both, which broke slow
// sessions and made tests either flaky or slow).
type ClientConfig struct {
	// DialTimeout bounds the TCP connect. Zero means the DialTimeout
	// constant (30s).
	DialTimeout time.Duration
	// IOTimeout is the per-operation deadline for the handshake, each
	// Send, and each Finish read. Zero means the resolved dial timeout;
	// negative disables I/O deadlines entirely.
	IOTimeout time.Duration
	// MaxRedirects caps how many FrameRedirect hops one dial follows
	// before giving up (a coordinator normally answers with exactly
	// one). Zero means 4; negative refuses redirects entirely — the
	// hello then omits the proto field and is bit-identical to the
	// original protocol, so a coordinator answers it with an error
	// instead of a redirect.
	MaxRedirects int
	// Retries is how many additional dial attempts follow a transport
	// failure (connection refused, dial timeout, or a redirect target
	// that cannot be reached — each retry restarts from the original
	// address, so a redirect to a freshly dead backend re-asks the
	// coordinator, which re-homes the device). Protocol-level failures
	// (a FrameError, a redirect loop) never retry. Zero means 2;
	// negative disables retries.
	Retries int
	// RetryBackoff is the base of the jittered exponential backoff
	// between retries: attempt i sleeps a uniform random duration in
	// [base/2, base) * 2^i, so a thundering herd of re-homing clients
	// spreads instead of re-dialing in lockstep. Zero means 100ms.
	RetryBackoff time.Duration
}

// withDefaults resolves the zero values.
func (cfg ClientConfig) withDefaults() ClientConfig {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DialTimeout
	}
	if cfg.IOTimeout == 0 {
		cfg.IOTimeout = cfg.DialTimeout
	}
	if cfg.MaxRedirects == 0 {
		cfg.MaxRedirects = 4
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	return cfg
}

// dialTCP is swapped out by the reconnect table tests to exercise the
// retry loop deterministically.
var dialTCP = net.DialTimeout

// retryableError marks a transport-level dial failure the retry loop
// may re-attempt from the original address.
type retryableError struct{ err error }

func (e retryableError) Error() string { return e.err.Error() }
func (e retryableError) Unwrap() error { return e.err }

// Dial connects to a fleet server (or a coordinator fronting several)
// with default timeouts, performs the hello/welcome handshake —
// transparently following a coordinator's redirect to the owning
// backend — and returns a ready client.
func Dial(addr string, hello Hello) (*Client, error) {
	return DialConfig(addr, hello, ClientConfig{})
}

// DialConfig is Dial with explicit timeout, redirect and retry
// configuration.
func DialConfig(addr string, hello Hello, cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxRedirects > 0 {
		hello.Proto = ProtoRedirect
	}
	backoff := cfg.RetryBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		c, err := dialHops(addr, hello, cfg)
		if err == nil {
			return c, nil
		}
		var re retryableError
		if !errors.As(err, &re) {
			return nil, err
		}
		lastErr = err
		if attempt >= cfg.Retries {
			break
		}
		// Jittered exponential backoff: uniform in [backoff/2, backoff).
		time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff/2))))
		backoff *= 2
	}
	if cfg.Retries > 0 {
		return nil, fmt.Errorf("fleet: dial %s failed after %d attempts: %w",
			addr, cfg.Retries+1, lastErr)
	}
	return nil, lastErr
}

// dialHops performs one dial pass: connect, handshake, and follow up to
// MaxRedirects coordinator redirects. Transport failures come back
// wrapped as retryableError; protocol failures are final.
func dialHops(addr string, hello Hello, cfg ClientConfig) (*Client, error) {
	for hop := 0; ; hop++ {
		conn, err := dialTCP("tcp", addr, cfg.DialTimeout)
		if err != nil {
			return nil, retryableError{err}
		}
		c := &Client{
			conn:    conn,
			br:      bufio.NewReaderSize(conn, 1<<16),
			bw:      bufio.NewWriterSize(conn, 1<<16),
			timeout: cfg.IOTimeout,
		}
		conn.SetDeadline(c.opDeadline())
		if err := writeFrame(c.bw, FrameHello, mustJSON(hello)); err != nil {
			conn.Close()
			return nil, retryableError{err}
		}
		if err := c.bw.Flush(); err != nil {
			conn.Close()
			return nil, retryableError{err}
		}
		typ, payload, err := readFrame(c.br, DefaultMaxFrameBytes)
		if err != nil {
			conn.Close()
			return nil, retryableError{fmt.Errorf("fleet: reading welcome: %w", err)}
		}
		switch typ {
		case FrameWelcome:
			if err := json.Unmarshal(payload, &c.welcome); err != nil {
				conn.Close()
				return nil, fmt.Errorf("fleet: bad welcome: %w", err)
			}
			conn.SetDeadline(time.Time{})
			return c, nil
		case FrameRedirect:
			conn.Close()
			var rd Redirect
			if err := json.Unmarshal(payload, &rd); err != nil || rd.Addr == "" {
				return nil, fmt.Errorf("fleet: bad redirect: %v", err)
			}
			if hop >= cfg.MaxRedirects {
				return nil, fmt.Errorf("fleet: redirect limit (%d hops) exceeded at %s -> %s",
					cfg.MaxRedirects, addr, rd.Addr)
			}
			addr = rd.Addr
		case FrameError:
			conn.Close()
			return nil, errors.New(decodeError(payload))
		default:
			conn.Close()
			return nil, fmt.Errorf("fleet: unexpected frame 0x%02x in handshake", typ)
		}
	}
}

// Welcome returns the server's session acknowledgment.
func (c *Client) Welcome() Welcome { return c.welcome }

// Send streams samples to the server, splitting them into frames under
// the protocol's size cap.
func (c *Client) Send(samples []float64) error {
	if c.closed {
		return errors.New("fleet: client closed")
	}
	maxPer := DefaultMaxFrameBytes / 8
	c.conn.SetWriteDeadline(c.opDeadline())
	for len(samples) > 0 {
		n := len(samples)
		if n > maxPer {
			n = maxPer
		}
		if err := writeFrame(c.bw, FrameSamples, EncodeSamples(samples[:n])); err != nil {
			return err
		}
		samples = samples[n:]
	}
	return c.bw.Flush()
}

// Finish says bye, then reads the remaining report events until the
// server's summary arrives. It returns the summary and every report
// received over the session's lifetime.
func (c *Client) Finish() (Summary, []Report, error) {
	var sum Summary
	if c.closed {
		return sum, c.reports, errors.New("fleet: client closed")
	}
	c.conn.SetWriteDeadline(c.opDeadline())
	if err := writeFrame(c.bw, FrameBye, nil); err != nil {
		return sum, c.reports, err
	}
	if err := c.bw.Flush(); err != nil {
		return sum, c.reports, err
	}
	for {
		c.conn.SetReadDeadline(c.opDeadline())
		typ, payload, err := readFrame(c.br, DefaultMaxFrameBytes)
		if err != nil {
			return sum, c.reports, fmt.Errorf("fleet: awaiting summary: %w", err)
		}
		switch typ {
		case FrameReport:
			var r Report
			if err := json.Unmarshal(payload, &r); err != nil {
				return sum, c.reports, fmt.Errorf("fleet: bad report: %w", err)
			}
			c.reports = append(c.reports, r)
		case FrameSummary:
			if err := json.Unmarshal(payload, &sum); err != nil {
				return sum, c.reports, fmt.Errorf("fleet: bad summary: %w", err)
			}
			return sum, c.reports, nil
		case FrameError:
			return sum, c.reports, errors.New(decodeError(payload))
		default:
			return sum, c.reports, fmt.Errorf("fleet: unexpected frame 0x%02x", typ)
		}
	}
}

// Reports returns the report events collected so far.
func (c *Client) Reports() []Report { return c.reports }

// Close tears the connection down.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}

// opDeadline returns the next per-operation deadline (zero time — no
// deadline — when I/O deadlines are disabled).
func (c *Client) opDeadline() time.Time {
	if c.timeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(c.timeout)
}

// decodeError extracts the message of a FrameError payload.
func decodeError(payload []byte) string {
	var ei ErrorInfo
	if err := json.Unmarshal(payload, &ei); err != nil || ei.Error == "" {
		return "fleet: server error"
	}
	return ei.Error
}
