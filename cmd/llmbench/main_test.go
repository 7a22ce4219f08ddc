package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"llmbench"
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

// TestErrorLineOnePrefix: main prints every error behind exactly one
// "llmbench: " prefix, whether the error comes from the llmbench
// package (which already carries it) or from the command itself.
func TestErrorLineOnePrefix(t *testing.T) {
	if got, want := errorLine(run([]string{"explain", "-tp", "-4"})), "llmbench: negative System.TP -4"; got != want {
		t.Errorf("explain -tp -4 prints %q, want %q", got, want)
	}
	_, err := llmbench.ServeSweep(llmbench.ServeSweepConfig{
		System:   llmbench.System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"},
		MaxBatch: 8, Seed: 1, Requests: 8, InputMean: 128, OutputMean: 16,
		KVBudgetGiB: -1,
	}, llmbench.ServeGrid{Rates: []float64{1}})
	if err == nil {
		t.Fatal("a negative KV budget must fail")
	}
	if got, want := errorLine(err), "llmbench: invalid KV budget -1 GiB (want a finite value ≥ 0)"; got != want {
		t.Errorf("KV budget error prints %q, want %q", got, want)
	}
	if got, want := errorLine(errors.New("unknown command")), "llmbench: unknown command"; got != want {
		t.Errorf("command error prints %q, want %q", got, want)
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
