package metrics

import (
	"strings"
	"testing"
)

func sampleFigure() *Figure {
	f := &Figure{ID: "figX", Title: "Test", XLabel: "Batch", YLabel: "Tok/s"}
	f.Add("A", 1, 100)
	f.Add("A", 16, 900)
	f.Add("B", 1, 50)
	f.Add("B", 16, 60)
	return f
}

func TestAddAndAt(t *testing.T) {
	f := sampleFigure()
	s := f.MustGet("A")
	y, err := s.At(16)
	if err != nil || y != 900 {
		t.Errorf("At(16) = %v, %v", y, err)
	}
	if _, err := s.At(99); err == nil {
		t.Error("missing X must error")
	}
	if _, err := f.Get("C"); err == nil {
		t.Error("missing series must error")
	}
}

func TestSeriesOrderIsInsertion(t *testing.T) {
	f := sampleFigure()
	if f.Series[0].Label != "A" || f.Series[1].Label != "B" {
		t.Error("series must keep insertion order")
	}
}

func TestMaxY(t *testing.T) {
	f := sampleFigure()
	if f.MustGet("A").MaxY() != 900 {
		t.Error("MaxY wrong")
	}
	var empty Series
	if empty.MaxY() != 0 {
		t.Error("empty MaxY must be 0")
	}
}

func TestMarkdownContainsEverything(t *testing.T) {
	f := sampleFigure()
	f.Note("B hit OOM at batch 32")
	md := f.Markdown()
	for _, want := range []string{"figX", "Batch", "| A |", "| B |", "900", "OOM"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestMarkdownMissingPointDash(t *testing.T) {
	f := sampleFigure()
	f.Add("C", 32, 10) // C has no point at 1 or 16
	if !strings.Contains(f.Markdown(), "—") {
		t.Error("missing points must render as —")
	}
}

func TestCSV(t *testing.T) {
	csv := sampleFigure().CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 5 { // header + 4 points
		t.Fatalf("csv has %d lines: %s", len(lines), csv)
	}
	if lines[0] != "series,x,y" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(csv, `"A",16,900`) {
		t.Errorf("csv missing point: %s", csv)
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(64) != "64" {
		t.Errorf("trimFloat(64) = %q", trimFloat(64))
	}
	if trimFloat(1234.567) != "1234.6" {
		t.Errorf("trimFloat(1234.567) = %q", trimFloat(1234.567))
	}
	if trimFloat(0.12345) != "0.123" {
		t.Errorf("trimFloat(0.12345) = %q", trimFloat(0.12345))
	}
}
