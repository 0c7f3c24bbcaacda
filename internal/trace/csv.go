package trace

import (
	"encoding/csv"
	"fmt"
	"io"
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

// ReadCSV parses a trace from "offset_seconds,mbps" rows. The sampling step
// is inferred from the first two rows; a single-row trace gets a 1 s step.
// A header row is skipped if present.
func ReadCSV(name string, r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: read csv: %w", err)
	}
	if len(recs) == 0 {
		return nil, ErrEmptyTrace
	}
	if _, err := strconv.ParseFloat(recs[0][0], 64); err != nil {
		recs = recs[1:] // skip header
	}
	if len(recs) == 0 {
		return nil, ErrEmptyTrace
	}
	offsets := make([]float64, len(recs))
	mbps := make([]float64, len(recs))
	for i, rec := range recs {
		off, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: bad offset %q: %w", i, rec[0], err)
		}
		v, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: bad mbps %q: %w", i, rec[1], err)
		}
		offsets[i] = off
		mbps[i] = v
	}
	step := time.Second
	if len(offsets) > 1 {
		step = time.Duration((offsets[1] - offsets[0]) * float64(time.Second))
		if step <= 0 {
			return nil, fmt.Errorf("trace: non-increasing offsets %v, %v", offsets[0], offsets[1])
		}
	}
	return &Trace{Name: name, Step: step, Mbps: mbps}, nil
}

// LoadCSV reads a trace from a file, naming it after the path.
func LoadCSV(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open %q: %w", path, err)
	}
	defer f.Close()
	return ReadCSV(path, f)
}
