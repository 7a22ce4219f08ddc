package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunCommands(t *testing.T) {
	for _, args := range [][]string{
		{"list"},
		{"catalog"},
		{"run", "tab1"},
		{"run", "fig2b"},
		{"perplexity"},
		{"verify"},
		{"help"},
		nil,
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown command must fail")
	}
	if err := run([]string{"run"}); err == nil {
		t.Error("run without ids must fail")
	}
	if err := run([]string{"run", "fig99"}); err == nil {
		t.Error("unknown experiment must fail")
	}
	if err := run([]string{"explain", "-tp", "-4"}); err == nil {
		t.Error("a negative TP degree must fail")
	}
}

func TestRunOneWritesCSV(t *testing.T) {
	dir := t.TempDir()
	if err := runOne("fig2b", dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig2b.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty CSV written")
	}
}
