package trace

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// badCSV are inputs readCSV must reject, each with the file line its error
// names (TestReadCSVErrors); they also seed FuzzReadCSV.
var badCSV = []struct{ in, line string }{
	{"0,abc\n", "line 1"},
	{"5,1\n3,1\n", "line 2"},
	{"0,1\n0.0004,1\n", "line 2"},         // step below the 1 ms resolution
	{"0,1\n1,1\n5,1\n", "line 3"},         // gap 4 s after a 1 s step
	{"0,1\n1,1\n2,1\n1.5,1\n", "line 4"},  // decreasing after line 3
	{"0,1\n1,1\n2.002,1\n", "line 3"},     // 2 ms off the step
	{"0,1\n1,NaN\n", "line 2"},            // capacities must be finite...
	{"offset_s,mbps\n0,+Inf\n", "line 2"}, // ...
	{"0,1\n1,-0.5\n", "line 2"},           // ...and non-negative
	{"0,1\nNaN,1\n", "line 2"},
	{"0,1\n1e300,1\n", "line 2"},                     // offset beyond a time.Duration
	{"offset_s,mbps\n0,5\n1,5\n2,fast\n", "line 4"},  // the header counts
	{"offset_s,mbps\n\n0,5\n\n1,5\n3,5\n", "line 6"}, // and so do blank lines
}

func FuzzReadCSV(f *testing.F) {
	cfg := CityLabVolatile(1)
	cfg.Duration = 20 * time.Second
	gen, err := Generate("seed", cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gen.WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("")
	f.Add("offset_s,mbps\n")
	f.Add("0,12.5\n")
	for _, c := range badCSV {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := readCSV("f", strings.NewReader(in))
		if err != nil {
			return
		}
		samples := tr.Samples()
		for i, v := range samples {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("accepted sample %d = %v", i, v)
			}
		}
		if rows := dataRows(t, in); tr.Len() != rows || len(samples) != rows {
			t.Fatalf("Len %d, %d samples, from %d data rows", tr.Len(), len(samples), rows)
		}
		var out bytes.Buffer
		if err := tr.WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
		back, err := readCSV("f", &out)
		if err != nil {
			t.Fatalf("re-reading WriteCSV output: %v\n%s", err, out.String())
		}
		if back.Len() != tr.Len() || (back.Step-tr.Step).Abs() > time.Millisecond {
			t.Fatalf("round trip Len/Step %d/%v, want %d/%v", back.Len(), back.Step, tr.Len(), tr.Step)
		}
		for i, v := range back.Samples() {
			if math.Float64bits(v) != math.Float64bits(samples[i]) {
				t.Fatalf("round trip sample %d = %v, want %v", i, v, samples[i])
			}
		}
	})
}

// dataRows counts the records of an accepted CSV input, less a header: a
// first record whose offset is not a number.
func dataRows(t *testing.T, in string) int {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatalf("accepted input does not parse as CSV: %v", err)
	}
	if _, err := strconv.ParseFloat(recs[0][0], 64); err != nil {
		return len(recs) - 1
	}
	return len(recs)
}
