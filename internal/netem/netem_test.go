package netem

import (
	"encoding/json"
	"net"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTokenBucketValidation(t *testing.T) {
	if _, err := NewTokenBucket(0, 0); err == nil {
		t.Error("zero rate: want error")
	}
	tb, err := NewTokenBucket(8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.SetRate(-1); err == nil {
		t.Error("negative rate: want error")
	}
	if got := tb.RateMbps(); got != 8 {
		t.Errorf("RateMbps = %v", got)
	}
}

// TestTokenBucketPacesWrites uses a fake clock to verify the pacing math:
// at 8 Mbps (1 MB/s), taking 2 MB must require ≈2 s of accumulated sleep.
func TestTokenBucketPacesWrites(t *testing.T) {
	tb, err := NewTokenBucket(8, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	var virtual time.Time
	var slept time.Duration
	tb.now = func() time.Time { return virtual }
	tb.last = virtual
	tb.sleep = func(d time.Duration) {
		slept += d
		virtual = virtual.Add(d)
	}
	tb.tokens = 0

	total := 2 << 20 // 2 MiB
	chunk := 32 * 1024
	for taken := 0; taken < total; taken += chunk {
		tb.Take(chunk)
	}
	wantSec := float64(total) / (8e6 / 8)
	if got := slept.Seconds(); got < wantSec*0.95 || got > wantSec*1.05 {
		t.Errorf("slept %.3fs for 2MiB at 8Mbps, want ≈%.3fs", got, wantSec)
	}
}

func TestTokenBucketLargerThanBurst(t *testing.T) {
	tb, err := NewTokenBucket(1000, 1024)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		tb.Take(10 * 1024) // 10x burst must still complete
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Take larger than burst hung")
	}
}

func TestTokenBucketConcurrentTakes(t *testing.T) {
	tb, err := NewTokenBucket(1000, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tb.Take(1024)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent takes hung")
	}
}

// startServer runs a probe server on loopback and returns it with a cleanup.
func startServer(t *testing.T, shaper *TokenBucket) *ProbeServer {
	t.Helper()
	srv, err := NewProbeServer("127.0.0.1:0", shaper)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve()
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
	})
	return srv
}

func TestProbeCapacityMeasuresShapedLink(t *testing.T) {
	shaper, err := NewTokenBucket(40, 64*1024) // 40 Mbps link
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, shaper)
	res, err := Probe(srv.Addr(), "flood", 500*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	mbps := res.Mbps
	// Loopback raw speed is GBs; the shaper must cap the measurement near
	// 40 Mbps (allow generous slack for scheduling jitter + burst credit).
	if mbps < 20 || mbps > 80 {
		t.Errorf("measured %.1f Mbps through a 40 Mbps shaper", mbps)
	}
}

// TestProbeHeadroom checks a paced probe reports the rate it achieved: about
// the pacing rate on a link with room for it, and no more than the link
// allows once the link is shrunk below it.
func TestProbeHeadroom(t *testing.T) {
	shaper, err := NewTokenBucket(40, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, shaper)

	res, err := Probe(srv.Addr(), "rate", 400*time.Millisecond, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mbps < 4.5 || res.Kind != "rate" {
		t.Errorf("5 Mbps paced probe on a 40 Mbps link = %+v, want kind rate and >= 4.5 Mbps", res)
	}

	// Shrink the link below the probe rate: the probe must fall short.
	if err := srv.SetRate(2); err != nil {
		t.Fatal(err)
	}
	res, err = Probe(srv.Addr(), "rate", 400*time.Millisecond, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mbps >= 18 {
		t.Errorf("20 Mbps paced probe on a 2 Mbps link achieved %.1f Mbps", res.Mbps)
	}
}

func TestProbeRecordsHistoryAndStatsEndpoint(t *testing.T) {
	srv := startServer(t, nil)
	if _, err := Probe(srv.Addr(), "flood", 100*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	hist := srv.History()
	if len(hist) != 1 {
		t.Fatalf("history = %d entries", len(hist))
	}
	if hist[0].Kind != "flood" || hist[0].Bytes == 0 {
		t.Errorf("history entry = %+v", hist[0])
	}

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/stats", nil)
	NewStatsHandler(srv).ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("stats status = %d", rec.Code)
	}
	var got []ProbeResult
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("stats returned %d entries", len(got))
	}

	rec = httptest.NewRecorder()
	req = httptest.NewRequest("POST", "/stats", nil)
	NewStatsHandler(srv).ServeHTTP(rec, req)
	if rec.Code != 405 {
		t.Errorf("POST status = %d, want 405", rec.Code)
	}
}

func TestProbeBadAddress(t *testing.T) {
	if _, err := Probe("127.0.0.1:1", "flood", 50*time.Millisecond, 0); err == nil {
		t.Error("probe to closed port: want error")
	}
}

func TestServerSetRateWithoutShaper(t *testing.T) {
	srv := startServer(t, nil)
	if err := srv.SetRate(5); err == nil {
		t.Error("SetRate without shaper: want error")
	}
}

// deadAddr returns an address with nothing listening: bind, note the port,
// close.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// stubSleep records dial backoff delays instead of sleeping for the rest of
// the test.
func stubSleep(t *testing.T) *[]time.Duration {
	t.Helper()
	var delays []time.Duration
	dialSleep = func(d time.Duration) { delays = append(delays, d) }
	t.Cleanup(func() { dialSleep = time.Sleep })
	return &delays
}

// TestProbeRetriesDeadListenerWithBackoff dials a dead listener and checks
// the bounded retry loop: dialAttempts dials, exponential delays between
// them, and the attempt count surfaced in the error.
func TestProbeRetriesDeadListenerWithBackoff(t *testing.T) {
	delays := stubSleep(t)
	res, err := Probe(deadAddr(t), "flood", 50*time.Millisecond, 0)
	if err == nil {
		t.Fatal("probe of dead listener succeeded")
	}
	if res.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", res.Attempts)
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("error does not report attempts: %v", err)
	}
	// Two sleeps between three attempts: 0.75x the doubling 200 ms base.
	want := []time.Duration{150 * time.Millisecond, 300 * time.Millisecond}
	if !reflect.DeepEqual(*delays, want) {
		t.Errorf("backoff delays = %v, want %v", *delays, want)
	}
}

// TestProbeBackoffJitterAndCap pins the backoff envelope: each delay sits in
// [d/2, d) of its pre-scaling delay d, and d stops doubling at
// dialBackoffMax.
func TestProbeBackoffJitterAndCap(t *testing.T) {
	for n, pre := range map[int]time.Duration{
		1: 200 * time.Millisecond,
		2: 400 * time.Millisecond,
		5: 3200 * time.Millisecond,
		6: 5 * time.Second, // capped
		9: 5 * time.Second,
	} {
		got := backoff(n)
		if got != pre*3/4 || got < pre/2 || got >= pre {
			t.Errorf("backoff(%d) = %v, want %v in [%v, %v)", n, got, pre*3/4, pre/2, pre)
		}
	}
}

// TestProbeAttemptsReportedOnSuccess checks a live server records one
// attempt.
func TestProbeAttemptsReportedOnSuccess(t *testing.T) {
	srv := startServer(t, nil)
	res, err := Probe(srv.Addr(), "flood", 50*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", res.Attempts)
	}
}
