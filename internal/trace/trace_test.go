package trace

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestConstantTrace(t *testing.T) {
	tr := Constant("l", time.Second, 25, 60)
	if tr.Len() != 60 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := tr.At(30 * time.Second); got != 25 {
		t.Errorf("At(30s) = %v, want 25", got)
	}
	if got := tr.Mean(); got != 25 {
		t.Errorf("Mean = %v", got)
	}
	if got := tr.StdDev(); got != 0 {
		t.Errorf("StdDev = %v", got)
	}
	if got := tr.Duration(); got != time.Minute {
		t.Errorf("Duration = %v", got)
	}
}

func TestTraceAtWrapsAround(t *testing.T) {
	tr := fromSamples("l", time.Second, 1, 2, 3)
	if got := tr.At(4 * time.Second); got != 2 {
		t.Errorf("At(4s) = %v, want wrap to 2", got)
	}
	if got := tr.At(-time.Second); got != 1 {
		t.Errorf("At(-1s) = %v, want clamp to first", got)
	}
	if got := tr.AtBps(0); got != 1e6 {
		t.Errorf("AtBps(0) = %v", got)
	}
}

func TestTraceAtEmpty(t *testing.T) {
	tr := &Trace{Name: "l", Step: time.Second}
	if got := tr.At(0); got != 0 {
		t.Errorf("empty At = %v", got)
	}
}

func TestGenerateMatchesCityLabStats(t *testing.T) {
	// Fig 2: link A mean 19.9 Mbps std 10%; link B mean 7.62 Mbps std 27%.
	tests := []struct {
		name     string
		cfg      GenConfig
		wantMean float64
		wantStd  float64 // fraction of mean
	}{
		{name: "stable", cfg: CityLabStable(42), wantMean: 19.9, wantStd: 0.10},
		{name: "volatile", cfg: CityLabVolatile(42), wantMean: 7.62, wantStd: 0.27},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := tt.cfg
			cfg.Duration = 2 * time.Hour // long horizon for tight stats
			// Disable dips for the statistical check: they are additive
			// disturbances on top of the calibrated AR(1).
			cfg.DipRatePerHour = 0
			tr, err := Generate(tt.name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := tr.Summarize()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(sum.MeanMbps-tt.wantMean)/tt.wantMean > 0.05 {
				t.Errorf("mean = %.2f, want ≈ %.2f", sum.MeanMbps, tt.wantMean)
			}
			gotStdFrac := sum.StdMbps / sum.MeanMbps
			if math.Abs(gotStdFrac-tt.wantStd)/tt.wantStd > 0.25 {
				t.Errorf("std = %.1f%% of mean, want ≈ %.0f%%", 100*gotStdFrac, 100*tt.wantStd)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate("a", CityLabStable(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("b", CityLabStable(7))
	if err != nil {
		t.Fatal(err)
	}
	as, bs := a.Samples(), b.Samples()
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("same seed diverged at sample %d: %v vs %v", i, as[i], bs[i])
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []GenConfig{
		{MeanMbps: 0},
		{MeanMbps: 10, StdFrac: -1},
		{MeanMbps: 10, Theta: 2},
		{MeanMbps: 10, DipDepth: 1.5},
		{MeanMbps: 10, Step: time.Minute, Duration: time.Second},
	}
	for i, cfg := range bad {
		if _, err := Generate("x", cfg); err == nil {
			t.Errorf("config %d: want error", i)
		}
	}
}

func TestGenerateFloor(t *testing.T) {
	cfg := GenConfig{MeanMbps: 1, StdFrac: 2, Seed: 3, Duration: 10 * time.Minute}
	tr, err := Generate("x", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Min() != floorMbps {
		t.Errorf("Min = %v, want the floor %v", tr.Min(), floorMbps)
	}
}

func TestStepTrace(t *testing.T) {
	// Fig 3's scenario: full capacity, then a 30 Mbps throttle, then
	// restored.
	tr := StepTrace("l", time.Second, 10*time.Second, []Level{
		{From: 0, Mbps: 1000},
		{From: 3 * time.Second, Mbps: 30},
		{From: 7 * time.Second, Mbps: 1000},
	})
	tests := []struct {
		at   time.Duration
		want float64
	}{
		{0, 1000},
		{2 * time.Second, 1000},
		{3 * time.Second, 30},
		{6 * time.Second, 30},
		{7 * time.Second, 1000},
	}
	for _, tt := range tests {
		if got := tr.At(tt.at); got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestRollingMeanWindowOne(t *testing.T) {
	tr := fromSamples("l", time.Second, 1, 5, 9)
	rm := tr.RollingMean(time.Second).Samples()
	for i, v := range tr.Samples() {
		if rm[i] != v {
			t.Errorf("window-1 rolling mean changed sample %d", i)
		}
	}
	if got := tr.RollingMean(2 * time.Second).At(time.Second); got != 3 {
		t.Errorf("rolling[1] = %v, want 3", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr, err := Generate("rt", GenConfig{MeanMbps: 10, StdFrac: 0.1, Seed: 1, Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := readCSV("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip length %d != %d", back.Len(), tr.Len())
	}
	if back.Step != tr.Step {
		t.Fatalf("round trip step %v != %v", back.Step, tr.Step)
	}
	bs := back.Samples()
	for i, v := range tr.Samples() {
		if math.Abs(bs[i]-v) > 1e-5 {
			t.Fatalf("sample %d: %v != %v", i, bs[i], v)
		}
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	tr := Constant("f", time.Second, 12.5, 10)
	if err := tr.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 10 || back.At(0) != 12.5 {
		t.Errorf("loaded %+v", back)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := readCSV("x", bytes.NewBufferString("")); !errors.Is(err, errEmptyTrace) {
		t.Errorf("empty: %v", err)
	}
	if _, err := readCSV("x", bytes.NewBufferString("offset_s,mbps\n")); !errors.Is(err, errEmptyTrace) {
		t.Errorf("header only: %v", err)
	}
	for _, c := range badCSV {
		_, err := readCSV("x", strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.line+":") {
			t.Errorf("ReadCSV(%q) = %v, want an error naming %s", c.in, err, c.line)
		}
	}
	// Offsets printed to 3 decimals wobble by up to 1 ms around the step.
	tr, err := readCSV("x", strings.NewReader("0.000,1\n0.333,1\n0.667,2\n1.000,3\n"))
	if err != nil || tr.Step != 333*time.Millisecond || tr.Len() != 4 {
		t.Fatalf("1/3 s trace: %+v, %v", tr, err)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := (&Trace{Name: "x", Step: time.Second}).Summarize(); !errors.Is(err, errEmptyTrace) {
		t.Errorf("want ErrEmptyTrace, got %v", err)
	}
}

// TestGeneratePositive property-checks that generated traces never go below
// the floor, for any sane config.
func TestGeneratePositive(t *testing.T) {
	f := func(seed int64, meanRaw, stdRaw uint8) bool {
		cfg := GenConfig{
			MeanMbps: float64(meanRaw%50) + 1,
			StdFrac:  float64(stdRaw%40) / 100,
			Seed:     seed,
			Duration: 5 * time.Minute,
		}
		tr, err := Generate("p", cfg)
		if err != nil {
			return false
		}
		return tr.Min() >= 0.1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGenerate20Min(b *testing.B) {
	cfg := CityLabStable(1)
	for i := 0; i < b.N; i++ {
		if _, err := Generate("bench", cfg); err != nil {
			b.Fatal(err)
		}
	}
}
