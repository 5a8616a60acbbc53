// Package metrics provides the reporting helpers shared by the benchmark
// harness and the CLIs: aligned text tables, CSV emission, and the
// percentage/ratio arithmetic the paper's headline claims use.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as CSV (no quoting needed for our numeric
// content; commas in cells are replaced by semicolons defensively).
func (t *Table) RenderCSV(w io.Writer) error {
	var b strings.Builder
	clean := func(s string) string { return strings.ReplaceAll(s, ",", ";") }
	for i, h := range t.headers {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(clean(h))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(clean(c))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// FormatFloat renders a float compactly: scientific for very small/large
// magnitudes, fixed otherwise.
func FormatFloat(v float64) string {
	switch {
	case v != v: // NaN
		return "-"
	case v == 0:
		return "0"
	case absf(v) < 1e-3 || absf(v) >= 1e6:
		return fmt.Sprintf("%.3e", v)
	case absf(v) < 1:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// PctChange returns 100·(to−from)/from: negative means a reduction, the
// quantity headline claims like "communication cost reduced by 32%" use.
func PctChange(from, to float64) float64 {
	if from == 0 {
		return 0
	}
	return 100 * (to - from) / from
}

// Reduction returns the positive reduction percentage 100·(from−to)/from,
// clamped at 0 when to >= from.
func Reduction(from, to float64) float64 {
	if from <= 0 || to >= from {
		return 0
	}
	return 100 * (from - to) / from
}

// Seconds formats a virtual duration with unit scaling.
func Seconds(v float64) string {
	switch {
	case v != v:
		return "-"
	case v >= 1:
		return fmt.Sprintf("%.3fs", v)
	case v >= 1e-3:
		return fmt.Sprintf("%.3fms", v*1e3)
	case v >= 1e-6:
		return fmt.Sprintf("%.3fµs", v*1e6)
	default:
		return fmt.Sprintf("%.0fns", v*1e9)
	}
}

// Bytes formats a byte count with unit scaling.
func Bytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/float64(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// sparkGlyphs are the eight block heights used by Sparkline.
var sparkGlyphs = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a unicode mini-chart on a log scale when the
// dynamic range exceeds two decades (convergence curves), linear
// otherwise. NaNs render as spaces.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if v != v {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if math.IsInf(lo, 1) {
		return strings.Repeat(" ", len(values))
	}
	logScale := lo > 0 && hi/lo > 100
	norm := func(v float64) float64 {
		if logScale {
			return (math.Log(v) - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
		}
		if hi == lo {
			return 0
		}
		return (v - lo) / (hi - lo)
	}
	var b strings.Builder
	for _, v := range values {
		if v != v {
			b.WriteByte(' ')
			continue
		}
		idx := int(norm(v) * float64(len(sparkGlyphs)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkGlyphs) {
			idx = len(sparkGlyphs) - 1
		}
		b.WriteRune(sparkGlyphs[idx])
	}
	return b.String()
}
