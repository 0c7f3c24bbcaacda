package netem

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"
)

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("netem: server closed")

// probeBufBytes caps both ends' socket buffers on a probe connection. With
// the kernel's autotuned megabytes queued between client and shaper, a flood
// would go on draining long after the client stopped: seconds on a slow
// link, rather than the probe's duration.
const probeBufBytes = 64 * 1024

// ProbeResult is one bandwidth measurement.
type ProbeResult struct {
	// Peer is the probed endpoint address.
	Peer string `json:"peer"`
	// Mbps is the measured throughput.
	Mbps float64 `json:"mbps"`
	// Bytes transferred during the probe.
	Bytes int64 `json:"bytes"`
	// DurationMillis is the measured interval.
	DurationMillis int64 `json:"durationMillis"`
	// Kind is "flood" (max-capacity) or "rate" (headroom).
	Kind string `json:"kind"`
	// At is the wall-clock completion time.
	At time.Time `json:"at"`
	// Attempts is how many dials the client needed (1 = first try). Zero in
	// server-side history records, which never dial.
	Attempts int `json:"attempts,omitempty"`
}

// ProbeServer accepts iperf3-like measurement connections: the client
// streams data for a declared duration and the server reports the received
// byte count, from which the client derives link throughput. The server's
// inbound side can be shaped with a token bucket to emulate a constrained
// wireless link.
type ProbeServer struct {
	ln      net.Listener
	shaper  *TokenBucket
	mu      sync.Mutex
	closed  bool
	history []ProbeResult
}

// NewProbeServer listens on addr (e.g. "127.0.0.1:0"). shaper may be nil for
// an unshaped link.
func NewProbeServer(addr string, shaper *TokenBucket) (*ProbeServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netem: listen %s: %w", addr, err)
	}
	return &ProbeServer{ln: ln, shaper: shaper}, nil
}

// Addr reports the listening address.
func (s *ProbeServer) Addr() string { return s.ln.Addr().String() }

// SetRate reshapes the server's inbound link.
func (s *ProbeServer) SetRate(mbps float64) error {
	if s.shaper == nil {
		return errors.New("netem: server has no shaper")
	}
	return s.shaper.SetRate(mbps)
}

// Serve accepts probe connections until Close. Each connection is handled on
// its own goroutine; Serve returns ErrServerClosed after Close.
func (s *ProbeServer) Serve() error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return fmt.Errorf("netem: accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops the listener; in-flight probes finish.
func (s *ProbeServer) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.ln.Close()
}

// History returns completed measurements, newest last.
func (s *ProbeServer) History() []ProbeResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ProbeResult, len(s.history))
	copy(out, s.history)
	return out
}

// handle implements the wire protocol: a text header
// "PROBE <kind>\n" followed by the payload stream; the connection's write
// side is closed by the client when the probe ends, and the server responds
// with a JSON ProbeResult line.
func (s *ProbeServer) handle(conn net.Conn) {
	defer conn.Close()
	_ = conn.(*net.TCPConn).SetReadBuffer(probeBufBytes)
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	r := bufio.NewReader(conn)
	header, err := r.ReadString('\n')
	if err != nil {
		return
	}
	fields := strings.Fields(header)
	if len(fields) != 2 || fields[0] != "PROBE" {
		fmt.Fprintf(conn, `{"error":"bad header"}`+"\n")
		return
	}
	kind := fields[1]

	start := time.Now()
	var total int64
	buf := make([]byte, 64*1024)
	for {
		n, rerr := r.Read(buf)
		if n > 0 {
			if s.shaper != nil {
				s.shaper.Take(n)
			}
			total += int64(n)
		}
		if rerr != nil {
			if rerr != io.EOF {
				return
			}
			break
		}
	}
	elapsed := time.Since(start)
	res := ProbeResult{
		Peer:           conn.RemoteAddr().String(),
		Bytes:          total,
		DurationMillis: elapsed.Milliseconds(),
		Kind:           kind,
		At:             time.Now(),
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.Mbps = float64(total) * 8 / sec / 1e6
	}
	s.mu.Lock()
	s.history = append(s.history, res)
	s.mu.Unlock()
	_ = json.NewEncoder(conn).Encode(res)
}

// The client's dial policy. Community-mesh links lose the control plane often
// enough that a single dial is wrong, so a probe retries with exponential
// backoff: the n-th retry waits 3/4 of min(dialBackoffBase·2^(n-1),
// dialBackoffMax), the same delay on every prober.
const (
	// dialTimeout bounds each connection attempt.
	dialTimeout = 5 * time.Second
	// dialAttempts bounds dial attempts, including the first.
	dialAttempts = 3
	// dialBackoffBase is the delay before the second attempt, before scaling;
	// it doubles per retry.
	dialBackoffBase = 200 * time.Millisecond
	// dialBackoffMax caps the pre-scaling delay.
	dialBackoffMax = 5 * time.Second
)

// dialSleep blocks between dial attempts; tests replace it to assert the
// backoff sequence without waiting it out.
var dialSleep = time.Sleep

// backoff returns the delay before attempt n+1 (n = attempts made so far,
// n >= 1).
func backoff(n int) time.Duration {
	d := dialBackoffBase
	for i := 1; i < n && d < dialBackoffMax; i++ {
		d *= 2
	}
	d = min(d, dialBackoffMax)
	return d/2 + d/4
}

// dialRetry dials with the per-attempt timeout and exponential backoff,
// reporting how many attempts were spent.
func dialRetry(addr string) (net.Conn, int, error) {
	for attempt := 1; ; attempt++ {
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err == nil {
			return conn, attempt, nil
		}
		if attempt >= dialAttempts {
			return nil, attempt, fmt.Errorf("netem: dial %s (%d attempts): %w", addr, attempt, err)
		}
		dialSleep(backoff(attempt))
	}
}

// Probe measures throughput to a probe server. kind "flood" sends as fast as
// possible for the duration (max-capacity probing); kind "rate" paces at
// rateMbps (headroom probing: the achieved rate is the spare capacity seen,
// up to the pacing rate). A rateMbps of 0 floods whatever the kind.
func Probe(addr string, kind string, duration time.Duration, rateMbps float64) (ProbeResult, error) {
	conn, attempts, err := dialRetry(addr)
	if err != nil {
		return ProbeResult{Attempts: attempts}, err
	}
	defer conn.Close()
	_ = conn.(*net.TCPConn).SetWriteBuffer(probeBufBytes)
	_ = conn.SetDeadline(time.Now().Add(duration + 20*time.Second))
	if _, err := fmt.Fprintf(conn, "PROBE %s\n", kind); err != nil {
		return ProbeResult{}, fmt.Errorf("netem: send header: %w", err)
	}

	var pacer *TokenBucket
	if rateMbps > 0 {
		pacer, err = NewTokenBucket(rateMbps, 32*1024)
		if err != nil {
			return ProbeResult{}, err
		}
	}
	payload := make([]byte, 32*1024)
	deadline := time.Now().Add(duration)
	for time.Now().Before(deadline) {
		if pacer != nil {
			pacer.Take(len(payload))
		}
		if _, err := conn.Write(payload); err != nil {
			return ProbeResult{}, fmt.Errorf("netem: send payload: %w", err)
		}
	}
	// Half-close so the server sees EOF and reports.
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		return ProbeResult{}, fmt.Errorf("netem: close write: %w", err)
	}
	var res ProbeResult
	if err := json.NewDecoder(conn).Decode(&res); err != nil {
		return ProbeResult{}, fmt.Errorf("netem: read result: %w", err)
	}
	res.Attempts = attempts
	return res, nil
}
