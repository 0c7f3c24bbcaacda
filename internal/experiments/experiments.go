// Package experiments contains one reproducible harness per table and figure
// of the BASS paper's evaluation (§6). Each Run* function describes its
// runs as scenario specs, builds and executes them with scenario.Build, and
// returns a typed result whose Table method renders the same rows/series the
// paper reports. The cmd/benchtab binary and the repository-root benchmarks
// drive these harnesses.
package experiments

import (
	"fmt"
	"strings"

	"bass/internal/cluster"
	"bass/internal/scenario"
)

// Table is a printable experiment result: a header row plus data rows.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString("== " + t.Title + " ==\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// f formats a float compactly for table cells.
func f(v float64) string { return fmt.Sprintf("%.3g", v) }

// f2 formats a float with fixed precision.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// ms renders seconds as milliseconds.
func ms(seconds float64) string { return fmt.Sprintf("%.0f", seconds*1e3) }

// CityLabWorkers returns the paper's heterogeneous worker set for the
// emulated mesh (scenario.CityLabWorkers).
func CityLabWorkers() []cluster.Node { return scenario.CityLabWorkers() }
