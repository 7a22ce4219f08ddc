package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metric names one reported number. Bound is the share of the
// baseline median by which an end-to-end metric may get worse before a
// change counts as a regression; per-layer metrics carry none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd are the host times a user of the simulator pays, as the
// process's CPU seconds (cpuSeconds) in untraced children. They hold
// steady across seeds, so a single-workload run prints them and
// BENCHMARK.json bounds them.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"warm_run_s", "s", "lower", 0.25},
}

// seedMetrics are end-to-end metrics that follow the seed: the cold
// engine memo re-bases a batch's step vector at every new low context
// and doubles it each time (README.md), so the same workload allocates
// 7 MB on one seed and 500 MB on the next. At one seed they repeat, so
// results files carry them and -compare bounds them. The heap allocated
// repeats exactly; the peak RSS depends on when the collector runs
// against the memo's growth (chat-day at seed 1 peaks at 18 or 22 MB),
// so it gets the wider bound.
var seedMetrics = []metric{
	{"alloc_mb", "MB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// failedFrac is reported in results files and compared by -compare
// with a zero bound. It is 0 on a healthy run, so it is not one of the
// endToEnd metrics a single-workload run prints; failures show there
// as the "failed" count.
var failedFrac = metric{"failed_frac", "ratio", "lower", 0}

// resultMetrics are the end-to-end metrics of a results file, in the
// order they print.
var resultMetrics = append(append(append([]metric(nil), endToEnd...), seedMetrics...), failedFrac)

// perLayer are measured only in the traced child, from the
// benchmark's own files around calls into each layer. README.md maps
// each one to the end-to-end metric and workload it should move.
var perLayer = []metric{
	{"workload.gen_s", "s", "lower", 0},
	{"engine.build_us", "us", "lower", 0},
	{"engine.cold_stepvec_ns", "ns", "lower", 0},
	{"engine.warm_stepvec_ns", "ns", "lower", 0},
	{"engine.prefill_ns", "ns", "lower", 0},
	{"engine.cold_alloc_mb", "MB", "lower", 0},
	{"kvcache.alloc_calls", "count", "lower", 0},
	{"kvcache.extend_calls", "count", "lower", 0},
	{"kvcache.free_calls", "count", "lower", 0},
	{"kvcache.canalloc_calls", "count", "lower", 0},
	{"kvcache.maxextend_calls", "count", "lower", 0},
	{"kvcache.alloc_ns", "ns", "lower", 0},
	{"kvcache.extend_ns", "ns", "lower", 0},
	{"kvcache.free_ns", "ns", "lower", 0},
	{"kvcache.canalloc_ns", "ns", "lower", 0},
	{"kvcache.maxextend_ns", "ns", "lower", 0},
	{"kvcache.self_s", "s", "lower", 0},
	{"kvcache.hit_rate", "ratio", "higher", 0},
	{"kvcache.preemptions", "count", "lower", 0},
	{"des.tokens_per_extend", "ratio", "higher", 0},
	{"des.windows_per_req", "ratio", "lower", 0},
	{"cluster.serve_s", "s", "lower", 0},
	{"cluster.self_s", "s", "lower", 0},
	{"sched.observe_ns", "ns", "lower", 0},
	{"sweep.points", "count", "higher", 0},
	{"sweep.cold_ms_per_point", "ms", "lower", 0},
	{"sweep.warm_ms_per_point", "ms", "lower", 0},
	{"trace.overhead", "ratio", "lower", 0},
	{"wall.run_s", "s", "lower", 0},
	{"wall.warm_run_s", "s", "lower", 0},
	{"cpu.engine", "share", "lower", 0},
	{"cpu.des", "share", "lower", 0},
	{"cpu.kvcache", "share", "lower", 0},
	{"cpu.cluster", "share", "lower", 0},
	{"cpu.sched", "share", "lower", 0},
	{"cpu.workload", "share", "lower", 0},
	{"cpu.llmbench", "share", "lower", 0},
	{"cpu.runtime", "share", "lower", 0},
	{"cpu.other", "share", "lower", 0},
}

// summary is one end-to-end metric over a workload's untraced children.
type summary struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// layerValue is one per-layer metric of a workload's traced child.
type layerValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// workloadResult is one workload's entry in a results file.
type workloadResult struct {
	Name        string                `json:"name"`
	Fingerprint string                `json:"fingerprint"`
	Golden      bool                  `json:"matches_golden"`
	Correct     bool                  `json:"correct"`
	Attempted   int                   `json:"attempted"`
	Failed      int                   `json:"failed"`
	EndToEnd    map[string]summary    `json:"end_to_end"`
	PerLayer    map[string]layerValue `json:"per_layer"`
}

// resultsFile is what a full invocation writes to -out and what
// -compare reads.
type resultsFile struct {
	Seed       uint64           `json:"seed"`
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NProc      int              `json:"nproc"`
	Note       string           `json:"note"`
	Workloads  []workloadResult `json:"workloads"`
}

const sampleNote = "end_to_end values are median, min and max over n untraced child processes, " +
	"times in process CPU seconds; n = 5 supports no tail percentile, so none is reported. " +
	"per_layer values come from one traced child."

// summarize folds one metric's samples into median, min and max.
func summarize(m metric, xs []float64) summary {
	s := sorted(xs)
	return summary{Unit: m.Unit, Better: m.Better, Bound: m.Bound,
		Median: median(s), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an ascending slice; the mean of the middle pair when even.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func readResults(path string) (resultsFile, error) {
	var r resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compare prints one row per (workload, end-to-end metric) of base:
// both medians, the relative change, the bound, and whether the change
// stays within it. A metric is beyond its bound when it moved in its
// worse direction by more than bound × |base median|, so a zero bound
// allows no worsening at all. A workload or metric missing from next is
// beyond. It returns the number of rows beyond their bound.
func compare(base, next resultsFile, w io.Writer) int {
	nextByName := make(map[string]workloadResult, len(next.Workloads))
	for _, wr := range next.Workloads {
		nextByName[wr.Name] = wr
	}
	fmt.Fprintf(w, "%-15s %-12s %14s %14s %9s %6s  %s\n", "workload", "metric", "base", "next", "delta", "bound", "verdict")
	beyond := 0
	for _, a := range base.Workloads {
		b, ok := nextByName[a.Name]
		for _, m := range resultMetrics {
			sa, inBase := a.EndToEnd[m.Name]
			if !inBase {
				continue
			}
			va := sa.Median
			sb, found := b.EndToEnd[m.Name]
			verdict, delta, next := "beyond", "—", "missing"
			if ok && found {
				vb := sb.Median
				next = fmt.Sprintf("%.6g", vb)
				if va != 0 {
					delta = fmt.Sprintf("%+.2f%%", 100*(vb-va)/va)
				}
				worse := vb - va
				if sa.Better == "higher" {
					worse = -worse
				}
				if worse <= sa.Bound*math.Abs(va) {
					verdict = "within"
				}
			}
			if verdict == "beyond" {
				beyond++
			}
			fmt.Fprintf(w, "%-15s %-12s %14.6g %14s %9s %5.0f%%  %s\n",
				a.Name, m.Name, va, next, delta, 100*sa.Bound, verdict)
		}
	}
	return beyond
}
