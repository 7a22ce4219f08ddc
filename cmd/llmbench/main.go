// Command llmbench regenerates the paper's figures and tables from the
// simulation engine.
//
// Usage:
//
//	llmbench list                 # list every experiment
//	llmbench run fig6 [fig7 ...]  # run experiments, print Markdown
//	llmbench all                  # run everything in paper order
//	llmbench all -csv results/    # additionally write per-figure CSVs
//	llmbench catalog              # list models, devices, frameworks
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"llmbench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine is the line main prints for a failed command: the error
// behind exactly one "llmbench: " prefix. Errors from the llmbench
// package already carry it; the command's own (flags, unknown
// commands) do not.
func errorLine(err error) string {
	const prefix = "llmbench: "
	msg := err.Error()
	if strings.HasPrefix(msg, prefix) {
		return msg
	}
	return prefix + msg
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return nil
	}
	switch args[0] {
	case "list":
		for _, e := range llmbench.Experiments() {
			fmt.Printf("%-7s %s\n        workload: %s\n", e.ID, e.Title, e.Workload)
		}
		return nil
	case "catalog":
		fmt.Println("Models:")
		for _, m := range llmbench.Models() {
			fmt.Println("  ", m)
		}
		fmt.Println("Devices:")
		for _, d := range llmbench.Devices() {
			fmt.Println("  ", d)
		}
		fmt.Println("Frameworks:")
		for _, f := range llmbench.Frameworks() {
			fmt.Println("  ", f)
		}
		return nil
	case "run":
		if len(args) < 2 {
			return fmt.Errorf("run needs at least one experiment id")
		}
		for _, id := range args[1:] {
			if err := runOne(id, ""); err != nil {
				return err
			}
		}
		return nil
	case "all":
		fs := flag.NewFlagSet("all", flag.ContinueOnError)
		csvDir := fs.String("csv", "", "directory to write per-figure CSV files")
		j := fs.Int("j", 0, "experiment parallelism (0 = all cores)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
		}
		var ids []string
		for _, e := range llmbench.Experiments() {
			ids = append(ids, e.ID)
		}
		return runMany(ids, *csvDir, *j)
	case "report":
		fs := flag.NewFlagSet("report", flag.ContinueOnError)
		j := fs.Int("j", 0, "figure parallelism (0 = all cores)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		md, err := llmbench.Report(*j)
		if err != nil {
			return err
		}
		fmt.Println(md)
		return nil
	case "explain":
		fs := flag.NewFlagSet("explain", flag.ContinueOnError)
		modelName := fs.String("model", "LLaMA-3-8B", "model name")
		device := fs.String("device", "A100", "accelerator name")
		fw := fs.String("framework", "vLLM", "framework name")
		tp := fs.Int("tp", 1, "tensor-parallel degree")
		batch := fs.Int("batch", 16, "batch size")
		length := fs.Int("len", 1024, "input/output length")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		bd, err := llmbench.Explain(
			llmbench.System{Model: *modelName, Device: *device, Framework: *fw, TP: *tp},
			llmbench.Workload{Batch: *batch, Input: *length, Output: *length})
		if err != nil {
			return err
		}
		printBreakdown(bd)
		return nil
	case "verify":
		fs := flag.NewFlagSet("verify", flag.ContinueOnError)
		j := fs.Int("j", 0, "figure parallelism (0 = all cores)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		rows, err := llmbench.VerifyAnchors(*j)
		if err != nil {
			return err
		}
		failed := 0
		for _, r := range rows {
			status := "ok  "
			if !r.Holds {
				status = "FAIL"
				failed++
			}
			fmt.Printf("%s %-6s %s: measured %s (paper %s)\n", status, r.Figure, r.Claim, r.Measured, r.Paper)
		}
		if failed > 0 {
			return fmt.Errorf("%d of %d anchors outside their shape bands", failed, len(rows))
		}
		fmt.Printf("\nall %d anchors hold\n", len(rows))
		return nil
	case "perplexity":
		fmt.Println("Perplexity on the synthetic LongBench-like corpus (Figs. 10/29):")
		for _, m := range []string{
			"LLaMA-2-7B", "Mistral-7B", "LLaMA-3-8B", "Gemma-7B", "DeciLM-7B",
			"LLaMA-7B", "Qwen1.5-7B", "Aquila-7B", "GPT-J-6B", "OPT-6.7B", "Bloom-7.1B",
		} {
			ppl, err := llmbench.Perplexity(m)
			if err != nil {
				return err
			}
			fmt.Printf("  %-12s %.3f\n", m, ppl)
		}
		return nil
	case "-h", "--help", "help":
		usage()
		return nil
	}
	return fmt.Errorf("unknown command %q (try 'llmbench help')", args[0])
}

func runOne(id, csvDir string) error {
	return runMany([]string{id}, csvDir, 1)
}

// runMany regenerates experiments concurrently but prints them in
// paper order, so `llmbench all -j 8` output matches `llmbench all`.
// On failure the experiments before the failing one still print —
// the serial loop's partial-output behaviour (RunExperiments
// guarantees every id below the failing one is complete).
func runMany(ids []string, csvDir string, parallelism int) error {
	results, err := llmbench.RunExperiments(ids, parallelism)
	for _, res := range results {
		if res.ID == "" {
			break // the failing experiment; err names it
		}
		fmt.Println(res.Markdown)
		if csvDir != "" && res.CSV != "" {
			path := filepath.Join(csvDir, res.ID+".csv")
			if err := os.WriteFile(path, []byte(res.CSV), 0o644); err != nil {
				return err
			}
			fmt.Printf("(wrote %s)\n\n", path)
		}
	}
	return err
}

func printBreakdown(bd *llmbench.Breakdown) {
	fmt.Printf("Workload: batch %d, input %d, output %d\n",
		bd.Spec.Batch, bd.Spec.Input, bd.Spec.Output)
	if bd.Waves > 1 {
		fmt.Printf("Memory plan: %d waves of %d sequences (KV does not fit at once); peak %.1f GiB/device\n",
			bd.Waves, bd.ConcurrentBatch, bd.PeakMemGiB)
	} else {
		fmt.Printf("Memory plan: whole batch resident; peak %.1f GiB/device\n", bd.PeakMemGiB)
	}
	bound := func(memoryBound bool) string {
		if memoryBound {
			return "memory-bound"
		}
		return "compute-bound"
	}
	p := bd.Prefill
	fmt.Printf("\nPrefill (%s): %.3fs total\n", bound(p.MemoryBound), p.Seconds)
	fmt.Printf("  compute wall %.3fs | memory wall %.3fs (weights %.3fs, KV write %.3fs)\n",
		p.ComputeWall, p.MemoryWall, p.WeightStreamS, p.KVWriteS)
	fmt.Printf("  comm %.3fs | overhead %.3fs | setup %.3fs\n", p.CommS, p.OverheadS, p.SetupS)
	d := bd.Decode
	fmt.Printf("\nDecode, all steps (%s): %.3fs total\n", bound(d.MemoryBound), d.Seconds)
	fmt.Printf("  compute wall %.3fs | memory wall %.3fs (weights %.3fs, KV read %.3fs, KV write %.3fs)\n",
		d.ComputeWall, d.MemoryWall, d.WeightStreamS, d.KVReadS, d.KVWriteS)
	fmt.Printf("  comm %.3fs | overhead %.3fs | logits penalty %.3fs\n", d.CommS, d.OverheadS, d.LogitsS)
}

func usage() {
	fmt.Println(`llmbench — LLM-Inference-Bench (SC'24) reproduction

Commands:
  list            list every reproduced figure/table
  run <id>...     regenerate specific experiments (e.g. fig6, tab2)
  all [-csv DIR] [-j N]
                  regenerate everything in paper order; -j bounds the
                  worker count (0 = all cores, output order unchanged)
  report [-j N]   print the paper-vs-measured anchor table
  verify [-j N]   CI check: fail if any paper anchor leaves its shape band
  explain [-model M -device D -framework F -tp N -batch B -len L]
                  attribute one benchmark point's time to mechanisms
  perplexity      evaluate the Fig. 10 quality axis
  catalog         list models, devices, frameworks`)
}
