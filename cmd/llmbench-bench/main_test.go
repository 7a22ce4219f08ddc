package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"llmbench/internal/dtype"
	"llmbench/internal/kvcache"
	"llmbench/internal/model"
)

// testScale divides every workload's request count so each workload
// runs in well under a second.
const testScale = 100

// TestWorkloads runs every workload of the table, traced, and requires
// cold, warm and traced runs to fingerprint identically with nothing
// failed, and every metric to be reported.
func TestWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rep, err := runChild(w, defaultSeed, testScale, true, t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Error("cold, warm and traced fingerprints differ")
			}
			if rep.Attempted == 0 || rep.Failed != 0 {
				t.Errorf("attempted %d, failed %d: want some attempted and none failed", rep.Attempted, rep.Failed)
			}
			for _, m := range append(append(append([]metric(nil), endToEnd...), seedMetrics...), perLayer...) {
				if _, ok := rep.Metrics[m.Name]; !ok {
					t.Errorf("metric %s not reported", m.Name)
				}
			}
		})
	}
}

// TestWrapAlloc checks that the counting wrapper has the optional
// allocator interfaces exactly when the allocator it wraps has them,
// and counts every call.
func TestWrapAlloc(t *testing.T) {
	bpt := model.MustGet("Mistral-7B").KVBytesPerToken(dtype.FP16)
	paged, err := kvcache.NewPaged(16, bpt, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := kvcache.NewPrefixPaged(16, 256, bpt, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := kvcache.NewPrefixPaged(16, 256, bpt, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := kvcache.NewTiered(gpu, 1<<28, kvcache.HostLink{GBPerS: 32, LatencyS: 5e-6})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                   string
		inner                  kvcache.Allocator
		hasDiscount, hasGauges bool
	}{
		{"Paged", paged, false, false},
		{"PrefixPaged", prefix, false, true},
		{"Tiered", tiered, true, true},
	} {
		w, c := wrapAlloc(tc.inner, 0)
		if _, ok := w.(kvcache.PrefillDiscounter); ok != tc.hasDiscount {
			t.Errorf("%s: wrapped PrefillDiscounter = %t, want %t", tc.name, ok, tc.hasDiscount)
		}
		if _, ok := w.(prefixGauges); ok != tc.hasGauges {
			t.Errorf("%s: wrapped prefix gauges = %t, want %t", tc.name, ok, tc.hasGauges)
		}
		seq, err := w.Alloc(300)
		if err != nil {
			t.Fatal(err)
		}
		for tok := 301; tok < 400; tok++ {
			if err := w.Extend(seq, tok); err != nil {
				t.Fatal(err)
			}
		}
		w.CanAlloc(10)
		w.MaxExtendSteps([]kvcache.Seq{seq}, 8)
		w.Free(seq)
		if want := [numOps]int64{1, 99, 1, 1, 1}; c.calls != want {
			t.Errorf("%s: calls %v, want %v", tc.name, c.calls, want)
		}
		if c.sampled[opExtend] != 2 {
			t.Errorf("%s: timed %d of 99 Extend calls, want 2 (one in %d)", tc.name, c.sampled[opExtend], sampleEvery)
		}
	}
}

// TestCompare checks the bound logic on two results files: a worsening
// within the bound passes, one beyond it fails, an improvement always
// passes, a zero bound allows no worsening, and a missing workload
// fails.
func TestCompare(t *testing.T) {
	base := resultsFile{Workloads: []workloadResult{
		{Name: "a", EndToEnd: map[string]summary{
			"run_s":       {Better: "lower", Bound: 0.10, Median: 2},
			"setup_s":     {Better: "lower", Bound: 0.25, Median: 1},
			"failed_frac": {Better: "lower", Bound: 0},
		}},
		{Name: "b", EndToEnd: map[string]summary{
			"run_s": {Better: "lower", Bound: 0.25, Median: 1},
		}},
	}}
	next := resultsFile{Workloads: []workloadResult{
		{Name: "a", EndToEnd: map[string]summary{
			"run_s":       {Median: 2.1}, // +5%: within
			"setup_s":     {Median: 0.5}, // better
			"failed_frac": {},
		}},
	}}
	dir := t.TempDir()
	write := func(name string, r resultsFile) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	check := func(want int) {
		t.Helper()
		a, err := readResults(write("a.json", base))
		if err != nil {
			t.Fatal(err)
		}
		b, err := readResults(write("b.json", next))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if got := compare(a, b, &out); got != want {
			t.Errorf("beyond = %d, want %d:\n%s", got, want, out.String())
		}
	}
	check(1) // workload b is missing
	next.Workloads = append(next.Workloads, workloadResult{Name: "b", EndToEnd: map[string]summary{
		"run_s": {Median: 1.25}, // +25%: on the bound
	}})
	check(0)
	next.Workloads[0].EndToEnd["run_s"] = summary{Median: 2.3} // +15%
	next.Workloads[0].EndToEnd["failed_frac"] = summary{Median: 0.001}
	check(2)
}

func TestCPUBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"llmbench/internal/des.(*Station).advance":              "cpu.des",
		"llmbench/internal/engine.(*Engine).masterFor (inline)": "cpu.engine",
		"llmbench.ServeSweep.func1":                             "cpu.llmbench",
		"runtime.mallocgc":                                      "cpu.runtime",
		"internal/runtime/atomic.(*Uint32).Load":                "cpu.runtime",
		"main.(*countingAlloc).Extend":                          "cpu.other",
		"slices.pdqsortCmpFunc[go.shape.struct":                 "cpu.other",
		"llmbench/internal/engine.(*costGrid[go.shape.struct":   "cpu.engine",
	} {
		if got := cpuBucket(fn); got != want {
			t.Errorf("cpuBucket(%q) = %s, want %s", fn, got, want)
		}
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with
// the workload and metric tables.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"cmd/llmbench-bench"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d = %q %q, want %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v, want %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v, want %+v", bj.PerLayer, perLayer)
	}
}
