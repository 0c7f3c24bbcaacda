package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"
)

// WriteCSV writes the trace as "offset_seconds,mbps" rows with a header.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"offset_s", "mbps"}); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for i, v := range t.Samples() {
		at := time.Duration(i) * t.Step
		rec := []string{
			strconv.FormatFloat(at.Seconds(), 'f', 3, 64),
			strconv.FormatFloat(v, 'f', 6, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes the trace to a file.
func (t *Trace) SaveCSV(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: create %q: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trace: close %q: %w", path, cerr)
		}
	}()
	return t.WriteCSV(f)
}

// readCSV parses a trace from "offset_seconds,mbps" rows. A header row is
// skipped if present. Offsets carry millisecond resolution (WriteCSV prints
// three decimals), so the sampling step is the gap between the first two
// rows rounded to the millisecond, and every later gap must be positive and
// within 1 ms of it; a single-row trace gets a 1 s step. Capacities must be
// finite and non-negative. Errors name the offending data row.
func readCSV(name string, r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: read csv: %w", err)
	}
	if len(recs) > 0 {
		if _, err := strconv.ParseFloat(recs[0][0], 64); err != nil {
			recs = recs[1:] // skip header
		}
	}
	if len(recs) == 0 {
		return nil, errEmptyTrace
	}
	out := &Trace{Name: name, Step: time.Second}
	var prev time.Duration
	for i, rec := range recs {
		off, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: bad offset %q: %w", i, rec[0], err)
		}
		// Bounding offsets to ±2^62 ns (~146 years) keeps every gap in range;
		// the negated test also rejects NaN.
		ns := math.Round(off * float64(time.Second))
		if !(math.Abs(ns) < 1<<62) {
			return nil, fmt.Errorf("trace: row %d: offset %q out of range", i, rec[0])
		}
		at := time.Duration(ns)
		v, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: bad mbps %q: %w", i, rec[1], err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("trace: row %d: capacity %q is not a finite, non-negative Mbps", i, rec[1])
		}
		gap := at - prev
		if i == 1 {
			if out.Step = gap.Round(time.Millisecond); out.Step <= 0 {
				return nil, fmt.Errorf("trace: row 1: offset %q is %v after row 0, want at least 1ms", rec[0], gap)
			}
		}
		if i > 0 && (gap <= 0 || (gap-out.Step).Abs() > time.Millisecond) {
			return nil, fmt.Errorf("trace: row %d: offset %q is %v after the previous row, want %v ± 1ms", i, rec[0], gap, out.Step)
		}
		prev = at
		out.add(v, 1)
	}
	if out.Step > math.MaxInt64/time.Duration(out.n) {
		return nil, fmt.Errorf("trace: %d rows of step %v overflow a time.Duration", out.n, out.Step)
	}
	return out, nil
}

// LoadCSV reads a trace from a file, naming it after the path.
func LoadCSV(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open %q: %w", path, err)
	}
	defer f.Close()
	return readCSV(path, f)
}
