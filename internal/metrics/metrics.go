// Package metrics holds the result containers the experiments produce
// — labelled series and tables mirroring the paper's figures — and
// renderers to Markdown and CSV for the CLI, benchmarks, and the
// dashboard.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one (x, y) observation; X is usually batch size or length.
type Point struct {
	X float64
	Y float64
}

// Series is one figure line, e.g. "H100 TRT-LLM LLaMA-3-8B".
type Series struct {
	Label  string
	Points []Point
}

// At returns the Y value at x, or an error when absent.
func (s *Series) At(x float64) (float64, error) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, nil
		}
	}
	return 0, fmt.Errorf("metrics: series %q has no point at x=%v", s.Label, x)
}

// MaxY returns the largest Y in the series (0 for empty).
func (s *Series) MaxY() float64 {
	m := 0.0
	for _, p := range s.Points {
		if p.Y > m {
			m = p.Y
		}
	}
	return m
}

// Figure is one reproduced paper figure: a set of series plus axis
// metadata.
type Figure struct {
	ID     string // e.g. "fig6"
	Title  string
	XLabel string
	YLabel string
	Series []*Series
	// Notes records observations (e.g. OOM points skipped).
	Notes []string
}

// Get returns the series with the given label.
func (f *Figure) Get(label string) (*Series, error) {
	for _, s := range f.Series {
		if s.Label == label {
			return s, nil
		}
	}
	return nil, fmt.Errorf("metrics: figure %s has no series %q", f.ID, label)
}

// MustGet panics if the label is absent — for tests and experiment
// assertions over figures this package itself produced.
func (f *Figure) MustGet(label string) *Series {
	s, err := f.Get(label)
	if err != nil {
		panic(err)
	}
	return s
}

// Add appends a point to the labelled series, creating it on first
// use; series keep insertion order so figures render like the paper's
// legends.
func (f *Figure) Add(label string, x, y float64) {
	for _, s := range f.Series {
		if s.Label == label {
			s.Points = append(s.Points, Point{x, y})
			return
		}
	}
	f.Series = append(f.Series, &Series{Label: label, Points: []Point{{x, y}}})
}

// Note records an annotation.
func (f *Figure) Note(format string, args ...interface{}) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// Markdown renders the figure as a Markdown table: one row per X,
// one column per series.
func (f *Figure) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", f.ID, f.Title)
	xs := f.xValues()
	fmt.Fprintf(&b, "| %s |", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %s |", s.Label)
	}
	b.WriteString("\n|")
	for i := 0; i < len(f.Series)+1; i++ {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, x := range xs {
		fmt.Fprintf(&b, "| %s |", trimFloat(x))
		for _, s := range f.Series {
			if y, err := s.At(x); err == nil {
				fmt.Fprintf(&b, " %s |", trimFloat(y))
			} else {
				b.WriteString(" — |")
			}
		}
		b.WriteString("\n")
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	return b.String()
}

// CSV renders the figure as series,x,y rows.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString("series,x,y\n")
	for _, s := range f.Series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%q,%s,%s\n", s.Label, trimFloat(p.X), trimFloat(p.Y))
		}
	}
	return b.String()
}

func (f *Figure) xValues() []float64 {
	set := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			set[p.X] = true
		}
	}
	xs := make([]float64, 0, len(set))
	for x := range set {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	return xs
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	if math.Abs(v) >= 100 {
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.3g", v)
}
