package metricstore

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func at(sec int) time.Time { return time.Unix(int64(sec), 0) }

func TestAppendAndQuery(t *testing.T) {
	s := New(0)
	labels := map[string]string{"link": "node1-node2"}
	for i := 0; i < 5; i++ {
		s.Append("link_bandwidth_mbps", labels, at(i), float64(10+i))
	}
	series := s.Query("link_bandwidth_mbps", labels, time.Time{}, time.Time{})
	if len(series) != 1 {
		t.Fatalf("series = %d", len(series))
	}
	if len(series[0].Samples) != 5 {
		t.Fatalf("samples = %d", len(series[0].Samples))
	}
	// Range restriction.
	series = s.Query("link_bandwidth_mbps", labels, at(2), at(3))
	if got := len(series[0].Samples); got != 2 {
		t.Errorf("range samples = %d, want 2", got)
	}
}

func TestQuerySelectorSubset(t *testing.T) {
	s := New(0)
	s.Append("tx_bytes", map[string]string{"pod": "a", "node": "n1"}, at(1), 1)
	s.Append("tx_bytes", map[string]string{"pod": "b", "node": "n2"}, at(1), 2)
	got := s.Query("tx_bytes", map[string]string{"node": "n2"}, time.Time{}, time.Time{})
	if len(got) != 1 || got[0].Labels["pod"] != "b" {
		t.Errorf("selector query = %+v", got)
	}
	all := s.Query("tx_bytes", nil, time.Time{}, time.Time{})
	if len(all) != 2 {
		t.Errorf("unselected query = %d series", len(all))
	}
}

func TestLatest(t *testing.T) {
	s := New(0)
	if _, ok := s.Latest("missing", nil); ok {
		t.Error("Latest on empty store: want ok=false")
	}
	s.Append("m", nil, at(1), 1)
	s.Append("m", nil, at(9), 9)
	got, ok := s.Latest("m", nil)
	if !ok || got.Value != 9 {
		t.Errorf("Latest = %+v ok=%v", got, ok)
	}
}

func TestRate(t *testing.T) {
	s := New(0)
	for i := 0; i < 10; i++ {
		s.Append("mbps", nil, at(i), float64(i))
	}
	agg, ok := s.AggOver("mbps", nil, at(9), 3*time.Second)
	if !ok {
		t.Fatal("AggOver: no samples")
	}
	// Samples at t=6..9: mean 7.5, min 6, max 9.
	if avg := agg.Avg(); avg != 7.5 || agg.Min != 6 || agg.Max != 9 {
		t.Errorf("Avg/Min/Max = %v/%v/%v, want 7.5/6/9", avg, agg.Min, agg.Max)
	}
	if _, ok := s.AggOver("ghost", nil, at(9), time.Second); ok {
		t.Error("AggOver on missing metric: want ok=false")
	}
}

func TestSampleCap(t *testing.T) {
	s := New(3)
	for i := 0; i < 10; i++ {
		s.Append("m", nil, at(i), float64(i))
	}
	series := s.Query("m", nil, time.Time{}, time.Time{})
	if got := len(series[0].Samples); got != 3 {
		t.Fatalf("capped samples = %d, want 3", got)
	}
	if series[0].Samples[0].Value != 7 {
		t.Errorf("oldest kept sample = %v, want 7", series[0].Samples[0].Value)
	}
}

func TestMetricsList(t *testing.T) {
	s := New(0)
	s.Append("b", nil, at(1), 1)
	s.Append("a", nil, at(1), 1)
	got := s.Metrics()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Metrics = %v", got)
	}
}

func TestLabelsCopiedAtBoundary(t *testing.T) {
	s := New(0)
	labels := map[string]string{"k": "v"}
	s.Append("m", labels, at(1), 1)
	labels["k"] = "mutated"
	got := s.Query("m", map[string]string{"k": "v"}, time.Time{}, time.Time{})
	if len(got) != 1 {
		t.Error("caller mutation leaked into stored labels")
	}
}

// TestSeriesKeyNoCollisions is the regression test for the seriesKey
// collision bug: label values containing the key's structural characters
// ('|', '=') used to canonicalise identically to differently-shaped label
// sets and silently merge into one series.
func TestSeriesKeyNoCollisions(t *testing.T) {
	collisions := []struct {
		name             string
		labelsA, labelsB map[string]string
	}{
		{"value embeds separator+assign", map[string]string{"a": "b|c=d"}, map[string]string{"a": "b", "c": "d"}},
		{"key embeds assign", map[string]string{"a=b": "c"}, map[string]string{"a": "b=c"}},
		{"value embeds separator", map[string]string{"a": "b|c"}, map[string]string{"a": "b", "c": ""}},
		{"trailing backslash", map[string]string{"a": `b\`}, map[string]string{"a": `b\\`}},
	}
	for _, tt := range collisions {
		s := New(0)
		s.Append("m", tt.labelsA, at(1), 1)
		s.Append("m", tt.labelsB, at(1), 2)
		if got := len(s.Query("m", nil, time.Time{}, time.Time{})); got != 2 {
			t.Errorf("%s: %v and %v merged into %d series, want 2",
				tt.name, tt.labelsA, tt.labelsB, got)
		}
	}
	// Metric names take part in the same canonical key space.
	s := New(0)
	s.Append("m|a=b", nil, at(1), 1)
	s.Append("m", map[string]string{"a": "b"}, at(1), 2)
	if got := len(s.Metrics()); got != 2 {
		t.Errorf("metric name collided with labeled series: %d metrics, want 2", got)
	}
}

// TestEmptySelectorValueRequiresLabel is the regression test for the matches
// bug: an empty-string selector value used to match series lacking the label
// entirely (map lookup of an absent key returns "").
func TestEmptySelectorValueRequiresLabel(t *testing.T) {
	s := New(0)
	s.Append("m", nil, at(1), 1)                               // unlabeled
	s.Append("m", map[string]string{"peer": ""}, at(1), 2)     // explicitly empty
	s.Append("m", map[string]string{"peer": "node"}, at(1), 3) // labeled

	got := s.Query("m", map[string]string{"peer": ""}, time.Time{}, time.Time{})
	if len(got) != 1 || got[0].Samples[0].Value != 2 {
		t.Errorf("empty-value selector matched %d series (%+v), want only the explicitly empty-labeled one", len(got), got)
	}
	if sample, ok := s.Latest("m", map[string]string{"peer": ""}); !ok || sample.Value != 2 {
		t.Errorf("Latest with empty-value selector = %+v ok=%v, want value 2", sample, ok)
	}
}

func TestConcurrentAppendQuery(t *testing.T) {
	s := New(0)
	// One selection shared by every goroutine while they mint the series it
	// must grow to include, plus one per goroutine taken mid-stream.
	shared := s.Select("m", nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			labels := map[string]string{"w": string(rune('a' + i))}
			own := s.Select("m", labels)
			for j := 0; j < 200; j++ {
				s.Append("m", labels, at(j), float64(j))
				_ = s.Query("m", nil, time.Time{}, time.Time{})
				_, _ = s.Latest("m", nil)
				_, _ = s.AggOver("m", nil, at(j), 5*time.Second)
				_ = s.Metrics()
				_ = s.WritePrometheus(io.Discard)
				_ = s.Snapshot()
				_, _ = shared.AggOver(at(j), 5*time.Second)
				if agg, _ := own.AggOver(at(j), time.Hour); agg.Count != j+1 {
					t.Errorf("worker %d: own selection saw %d samples after %d appends", i, agg.Count, j+1)
				}
			}
		}()
	}
	wg.Wait()
	if got := len(s.Query("m", nil, time.Time{}, time.Time{})); got != 4 {
		t.Errorf("series = %d, want 4", got)
	}
	got, _ := shared.AggOver(at(199), time.Hour)
	want, _ := s.AggOver("m", nil, at(199), time.Hour)
	if got != want || got.Count != 800 {
		t.Errorf("shared selection = %+v, store = %+v, want equal with 800 samples", got, want)
	}
}

func TestHTTPQueryAPI(t *testing.T) {
	s := New(0)
	s.Append("link_mbps", map[string]string{"link": "a-b"}, at(5), 19.9)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	tests := []struct {
		url        string
		wantStatus int
		wantSeries int
	}{
		{url: "/api/v1/query?metric=link_mbps", wantStatus: 200, wantSeries: 1},
		{url: "/api/v1/query?metric=link_mbps&label.link=a-b", wantStatus: 200, wantSeries: 1},
		{url: "/api/v1/query?metric=link_mbps&label.link=zz", wantStatus: 200, wantSeries: 0},
		{url: "/api/v1/query?metric=link_mbps&from=1&to=9", wantStatus: 200, wantSeries: 1},
		{url: "/api/v1/query", wantStatus: 400},
		{url: "/api/v1/query?metric=m&from=bogus", wantStatus: 400},
	}
	client := srv.Client()
	for _, tt := range tests {
		resp, err := client.Get(srv.URL + tt.url)
		if err != nil {
			t.Fatalf("%s: %v", tt.url, err)
		}
		if resp.StatusCode != tt.wantStatus {
			t.Errorf("%s: status %d, want %d", tt.url, resp.StatusCode, tt.wantStatus)
			resp.Body.Close()
			continue
		}
		if tt.wantStatus == 200 {
			var series []Series
			if err := json.NewDecoder(resp.Body).Decode(&series); err != nil {
				t.Errorf("%s: decode: %v", tt.url, err)
			}
			if len(series) != tt.wantSeries {
				t.Errorf("%s: %d series, want %d", tt.url, len(series), tt.wantSeries)
			}
		}
		resp.Body.Close()
	}

	resp, err := client.Get(srv.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics []string
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != 1 || metrics[0] != "link_mbps" {
		t.Errorf("metrics = %v", metrics)
	}
}

// TestHTTPEmptySelectorValue pins the matches fix at the API boundary:
// GET /api/v1/query?...&label.peer= must not match series that lack the peer
// label.
func TestHTTPEmptySelectorValue(t *testing.T) {
	s := New(0)
	s.Append("link_mbps", nil, at(1), 1)
	s.Append("link_mbps", map[string]string{"peer": "10.0.0.2"}, at(1), 2)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/api/v1/query?metric=link_mbps&label.peer=")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var series []Series
	if err := json.NewDecoder(resp.Body).Decode(&series); err != nil {
		t.Fatal(err)
	}
	if len(series) != 0 {
		t.Errorf("label.peer= matched %d series (%+v), want 0: no series carries peer=\"\"", len(series), series)
	}
}

func TestWritePrometheus(t *testing.T) {
	s := New(0)
	s.Append("link_capacity_mbps", map[string]string{"peer": "10.0.0.2:9101"}, at(5), 24.5)
	s.Append("link_capacity_mbps", map[string]string{"peer": "10.0.0.2:9101"}, at(7), 19)
	s.Append("link_capacity_mbps", map[string]string{"peer": "10.0.0.3:9101"}, at(7), 31.25)
	s.Append("migrations_total", nil, at(9), 3)
	s.Append("odd", map[string]string{"q": `a"b\c`}, at(1), 1)

	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := "# TYPE link_capacity_mbps gauge\n" +
		`link_capacity_mbps{peer="10.0.0.2:9101"} 19 7000` + "\n" +
		`link_capacity_mbps{peer="10.0.0.3:9101"} 31.25 7000` + "\n" +
		"# TYPE migrations_total gauge\n" +
		"migrations_total 3 9000\n" +
		"# TYPE odd gauge\n" +
		`odd{q="a\"b\\c"} 1 1000` + "\n"
	if got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestPrometheusHandler(t *testing.T) {
	s := New(0)
	s.Append("m", nil, at(1), 1)
	srv := httptest.NewServer(s.PrometheusHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "m 1 1000") {
		t.Errorf("body = %q", body)
	}
}

// latestViaQuery is the pre-fix Latest implementation, kept as the
// benchmark baseline: it deep-copies every matching series' full sample
// history just to read the last element.
func latestViaQuery(s *Store, metric string, selector map[string]string) (Sample, bool) {
	series := s.Query(metric, selector, time.Time{}, time.Time{})
	var best Sample
	found := false
	for _, sr := range series {
		if n := len(sr.Samples); n > 0 {
			last := sr.Samples[n-1]
			if !found || last.At.After(best.At) {
				best = last
				found = true
			}
		}
	}
	return best, found
}

func TestLatestMatchesQueryPath(t *testing.T) {
	s := New(0)
	for i := 0; i < 8; i++ {
		labels := map[string]string{"link": string(rune('a' + i))}
		for j := 0; j < 50; j++ {
			s.Append("mbps", labels, at(i*100+j), float64(i*100+j))
		}
	}
	want, wantOK := latestViaQuery(s, "mbps", nil)
	got, gotOK := s.Latest("mbps", nil)
	if got != want || gotOK != wantOK {
		t.Errorf("Latest = %+v/%v, query path = %+v/%v", got, gotOK, want, wantOK)
	}
}

// benchStore builds the controller-sweep shape: a few dozen link series,
// each with a long sample history.
func benchStore() *Store {
	s := New(0)
	for i := 0; i < 32; i++ {
		labels := map[string]string{"link": fmt.Sprintf("n%d-n%d", i, i+1)}
		for j := 0; j < 5000; j++ {
			s.Append("link_capacity_mbps", labels, at(j), float64(j))
		}
	}
	return s
}

// BenchmarkLatest vs BenchmarkLatestViaQuery shows the win from scanning
// under RLock instead of deep-copying through Query:
//
//	go test -bench=Latest -benchmem ./internal/metricstore
func BenchmarkLatest(b *testing.B) {
	s := benchStore()
	sel := map[string]string{"link": "n3-n4"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Latest("link_capacity_mbps", sel); !ok {
			b.Fatal("no sample")
		}
	}
}

func BenchmarkLatestViaQuery(b *testing.B) {
	s := benchStore()
	sel := map[string]string{"link": "n3-n4"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := latestViaQuery(s, "link_capacity_mbps", sel); !ok {
			b.Fatal("no sample")
		}
	}
}
