// Package experiment reproduces every table and figure of the paper's
// evaluation (Section 6). Each RunFigNN function regenerates the series the
// corresponding figure plots and returns them as a printable table.
//
// Absolute running times differ from the paper (different hardware and
// implementation language); the reproduction targets are the shapes: which
// solver wins, growth rates, crossovers, and speedup factors; each driver
// states its target shape in its table's Notes line.
package experiment

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Scale selects experiment sizes.
type Scale int

const (
	// Small finishes each figure in seconds; used by bench_test.go and CI.
	Small Scale = iota
	// Paper approaches the paper's parameter ranges; minutes per figure.
	Paper
)

// ParseScale converts a flag value.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "small", "":
		return Small, nil
	case "paper", "full":
		return Paper, nil
	}
	return Small, fmt.Errorf("experiment: unknown scale %q (small|paper)", s)
}

// Table is a printable result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmtFloat(v)
		case time.Duration:
			row[i] = fmtDur(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func fmtFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 0.01 && math.Abs(v) < 10000:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.3e", v)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fus", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// timeIt measures f.
func timeIt(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// stats summarizes a sample.
type stats struct{ xs []float64 }

func (s *stats) add(x float64) { s.xs = append(s.xs, x) }
func (s *stats) n() int        { return len(s.xs) }

func (s *stats) mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

func (s *stats) quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	xs := append([]float64(nil), s.xs...)
	sort.Float64s(xs)
	idx := q * float64(len(xs)-1)
	lo := int(idx)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := idx - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func (s *stats) median() float64 { return s.quantile(0.5) }

// relErr returns |est-truth|/truth, or |est| when truth is 0.
func relErr(est, truth float64) float64 {
	if truth == 0 {
		return math.Abs(est)
	}
	return math.Abs(est-truth) / truth
}

// Figures maps figure ids to runners.
var Figures = map[string]func(Scale) (*Table, error){
	"4":   RunFig04,
	"5":   RunFig05,
	"6":   RunFig06,
	"7a":  RunFig07a,
	"7b":  RunFig07b,
	"8":   RunFig08,
	"9":   RunFig09,
	"10a": RunFig10a,
	"10b": RunFig10b,
	"11":  RunFig11,
	"12":  RunFig12,
	"13a": RunFig13a,
	"13b": RunFig13b,
	"14":  RunFig14,
	"15":  RunFig15,
}

// FigureIDs lists figure ids in presentation order.
var FigureIDs = []string{"4", "5", "6", "7a", "7b", "8", "9", "10a", "10b", "11", "12", "13a", "13b", "14", "15"}
