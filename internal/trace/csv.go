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

// WriteCSV writes the trace as "offset_seconds,mbps" rows with a header:
// offsets to the millisecond, each Mbps in the shortest form that parses
// back to the same float64, so LoadCSV replays the samples bit for bit.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"offset_s", "mbps"}); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for i, v := range t.Samples() {
		at := time.Duration(i) * t.Step
		rec := []string{
			strconv.FormatFloat(at.Seconds(), 'f', 3, 64),
			strconv.FormatFloat(v, 'g', -1, 64),
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
// finite and non-negative. Errors name the offending row by its 1-based
// line in the file, a header included.
func readCSV(name string, r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	out := &Trace{Name: name, Step: time.Second}
	var prev time.Duration
	for first := true; ; first = false {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: read csv: %w", err)
		}
		line, _ := cr.FieldPos(0)
		off, err := strconv.ParseFloat(rec[0], 64)
		if err != nil && first {
			continue // skip header
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad offset %q: %w", line, rec[0], err)
		}
		// Bounding offsets to ±2^62 ns (~146 years) keeps every gap in range;
		// the negated test also rejects NaN.
		ns := math.Round(off * float64(time.Second))
		if !(math.Abs(ns) < 1<<62) {
			return nil, fmt.Errorf("trace: line %d: offset %q out of range", line, rec[0])
		}
		at := time.Duration(ns)
		v, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad mbps %q: %w", line, rec[1], err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("trace: line %d: capacity %q is not a finite, non-negative Mbps", line, rec[1])
		}
		gap := at - prev
		if out.n == 1 {
			if out.Step = gap.Round(time.Millisecond); out.Step <= 0 {
				return nil, fmt.Errorf("trace: line %d: offset %q is %v after the first row, want at least 1ms", line, rec[0], gap)
			}
		}
		if out.n > 0 && (gap <= 0 || (gap-out.Step).Abs() > time.Millisecond) {
			return nil, fmt.Errorf("trace: line %d: offset %q is %v after the previous row, want %v ± 1ms", line, rec[0], gap, out.Step)
		}
		prev = at
		out.add(v, 1)
	}
	if out.n == 0 {
		return nil, errEmptyTrace
	}
	if out.Step > math.MaxInt64/time.Duration(out.n) {
		return nil, fmt.Errorf("trace: %d rows of step %v overflow a time.Duration", out.n, out.Step)
	}
	return out, nil
}

// LoadCSV reads a trace from a file, naming it after the path. Its errors
// name the path.
func LoadCSV(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open %q: %w", path, err)
	}
	defer f.Close()
	t, err := readCSV(path, f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
