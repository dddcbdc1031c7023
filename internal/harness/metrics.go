// The error and cost accounting every experiment uses: streaming error
// accumulators (RMSE, MAE, max), bound-violation counters, and plain-text
// table rendering for the regenerated tables and figures.

package harness

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Error accumulates element-wise error statistics between estimates and
// reference values.
type Error struct {
	n      int64
	sse    float64
	sae    float64
	maxAbs float64
}

// Add accumulates the error between got and want (same length).
func (e *Error) Add(got, want []float64) {
	if len(got) != len(want) {
		panic(fmt.Sprintf("metrics: Add length mismatch %d vs %d", len(got), len(want)))
	}
	for i := range got {
		d := got[i] - want[i]
		e.AddScalar(d)
	}
}

// AddScalar accumulates a single signed error.
func (e *Error) AddScalar(d float64) {
	e.n++
	e.sse += d * d
	ad := math.Abs(d)
	e.sae += ad
	if ad > e.maxAbs {
		e.maxAbs = ad
	}
}

// N returns the number of accumulated errors.
func (e *Error) N() int64 { return e.n }

// RMSE returns the root-mean-square error (0 when empty).
func (e *Error) RMSE() float64 {
	if e.n == 0 {
		return 0
	}
	return math.Sqrt(e.sse / float64(e.n))
}

// MAE returns the mean absolute error (0 when empty).
func (e *Error) MAE() float64 {
	if e.n == 0 {
		return 0
	}
	return e.sae / float64(e.n)
}

// MaxAbs returns the largest absolute error seen.
func (e *Error) MaxAbs() float64 { return e.maxAbs }

// Violations counts how often a measured deviation exceeded a promised
// bound, and by how much at worst.
type Violations struct {
	Checked int64
	Count   int64
	Worst   float64 // largest (deviation − bound) observed
}

// Check records one (deviation, bound) pair.
func (v *Violations) Check(deviation, bound float64) {
	v.Checked++
	if excess := deviation - bound; excess > 1e-9 {
		v.Count++
		if excess > v.Worst {
			v.Worst = excess
		}
	}
}

// Rate returns the violation fraction.
func (v *Violations) Rate() float64 {
	if v.Checked == 0 {
		return 0
	}
	return float64(v.Count) / float64(v.Checked)
}

// Table renders aligned plain-text tables — the output format for every
// regenerated table and figure (figures are rendered as x/y series
// tables).
type Table struct {
	title   string
	headers []string
	rows    [][]string
	notes   []string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells. Extra
// cells beyond the header count are a programming error (previously they
// were silently dropped, hiding the data) and panic.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.headers) {
		panic(fmt.Sprintf("metrics: AddRow got %d cells for %d columns (table %q)",
			len(cells), len(t.headers), t.title))
	}
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddNote appends a free-text footnote rendered under the table.
func (t *Table) AddNote(note string) { t.notes = append(t.notes, note) }

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// WriteTo renders the table to w.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteString("\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, n := range t.notes {
		b.WriteString("  note: ")
		b.WriteString(n)
		b.WriteString("\n")
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if _, err := t.WriteTo(&b); err != nil {
		// strings.Builder never errors; keep the contract loud anyway.
		panic(err)
	}
	return b.String()
}

// F formats a float compactly for table cells.
func F(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 10000 || math.Abs(v) < 0.001:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// I formats an integer for table cells.
func I(v int64) string { return fmt.Sprintf("%d", v) }

// Pct formats a ratio as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// Ratio formats "a is ×k of b" comparisons; returns "inf" when b is 0.
func Ratio(a, b float64) string {
	if b == 0 {
		if a == 0 {
			return "1.00x"
		}
		return "inf"
	}
	return fmt.Sprintf("%.2fx", a/b)
}
