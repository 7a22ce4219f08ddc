// Command llmbench-bench is the repository's layered benchmark of the
// serving simulator's host costs: set-up time, cold and warm run time,
// heap allocated and peak RSS on four workloads, plus per-layer
// counters and timings from a separately traced run. Simulated
// statistics are outputs: every run fingerprints them and checks the
// fingerprint, but never scores them. See README.md.
//
// Every measurement runs in a fresh child process of this binary, one
// at a time, so cold means a cold engine memo:
//
//	bash cmd/llmbench-bench/run.sh                      # all workloads: 5 untraced + 1 traced child each
//	bash cmd/llmbench-bench/run.sh -seed 7 -out r.json
//	bash cmd/llmbench-bench/run.sh --workload chat-day --seed 3 --seconds 25 --trace 0
//	bash cmd/llmbench-bench/run.sh -compare base.json next.json
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	defaultSeed      = 1
	untracedChildren = 5
	// artifactDir, relative to the working directory, receives each
	// traced child's CPU profile and spans.
	artifactDir = ".bench_build/llmbench-bench"
)

// golden holds each workload's fingerprint at the default seed and
// full size. A change that alters what is simulated changes it.
//
//go:embed golden.json
var goldenJSON []byte

func main() {
	workloadName := flag.String("workload", "", "run one workload for -seconds and print one JSON result line")
	seed := flag.Uint64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "with -workload: start child runs until this many seconds are used")
	traceLevel := flag.Int("trace", 0, "0 reports end-to-end metrics from untraced children, 1 per-layer metrics from traced ones")
	out := flag.String("out", filepath.Join(artifactDir, "results.json"), "results file of a full invocation")
	cmp := flag.Bool("compare", false, "compare two results files given as arguments; exit 1 if any metric is beyond its bound")
	child := flag.String("child", "", "measure one workload in this process (used by the parent)")
	flag.Parse()

	if err := run(*workloadName, *seed, *seconds, *traceLevel, *out, *cmp, *child); err != nil {
		fmt.Fprintln(os.Stderr, "llmbench-bench:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed uint64, seconds, traceLevel int, out string, cmp bool, child string) error {
	if cmp {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two results files")
		}
		a, err := readResults(flag.Arg(0))
		if err != nil {
			return err
		}
		b, err := readResults(flag.Arg(1))
		if err != nil {
			return err
		}
		if n := compare(a, b, os.Stdout); n > 0 {
			return fmt.Errorf("%d metric(s) beyond their bound", n)
		}
		return nil
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if traceLevel != 0 && traceLevel != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", traceLevel)
	}
	golden := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	if err := os.MkdirAll(artifactDir, 0o755); err != nil {
		return err
	}
	switch {
	case child != "":
		w, err := lookupWorkload(child)
		if err != nil {
			return err
		}
		rep, err := runChild(w, seed, 1, traceLevel == 1, artifactDir, golden)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(rep)
	case workloadName != "":
		w, err := lookupWorkload(workloadName)
		if err != nil {
			return err
		}
		if seconds < 1 {
			return fmt.Errorf("-seconds %d: want at least 1", seconds)
		}
		return runTimed(w, seed, time.Duration(seconds)*time.Second, traceLevel == 1)
	}
	return runFull(seed, out, golden)
}

// childReport is what a child process prints: its fingerprint, the
// operations it attempted and failed, and its metrics.
type childReport struct {
	Workload    string             `json:"workload"`
	Fingerprint string             `json:"fingerprint"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]float64 `json:"metrics"`
}

// runChild measures one workload in the current process: set-up, a
// run with the engine memo cold, the identical run warm and, when
// traced, the per-layer pass. Cold, warm and traced runs must
// fingerprint identically, and at the default seed and full size match
// golden; otherwise every operation counts as failed. The end-to-end
// times are process CPU seconds; the runs' wall times are per-layer
// metrics.
func runChild(w *workloadDef, seed uint64, scale int, traced bool, outDir string, golden map[string]string) (childReport, error) {
	rep := childReport{Workload: w.name, Metrics: map[string]float64{}}
	sp := newSpans()
	sp.begin(w.name)
	sp.begin("setup")
	c0 := cpuSeconds()
	s, err := w.setup(seed, scale, sp)
	rep.Metrics["setup_s"] = cpuSeconds() - c0
	sp.end()
	if err != nil {
		return rep, fmt.Errorf("%s setup: %w", w.name, err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp.begin("run.cold")
	c0 = cpuSeconds()
	cold, err := s.run(nil)
	rep.Metrics["run_s"] = cpuSeconds() - c0
	rep.Metrics["wall.run_s"] = sp.end()
	if err != nil {
		return rep, fmt.Errorf("%s cold run: %w", w.name, err)
	}
	runtime.ReadMemStats(&after)
	rep.Metrics["alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)

	if err := s.arm(nil); err != nil {
		return rep, err
	}
	sp.begin("run.warm")
	c0 = cpuSeconds()
	warm, err := s.run(nil)
	rep.Metrics["warm_run_s"] = cpuSeconds() - c0
	warmS := sp.end()
	rep.Metrics["wall.warm_run_s"] = warmS
	if err != nil {
		return rep, fmt.Errorf("%s warm run: %w", w.name, err)
	}

	rep.Fingerprint = cold.fingerprint
	rep.Correct = warm.fingerprint == cold.fingerprint
	rep.Attempted = cold.attempted + warm.attempted
	rep.Failed = cold.failed + warm.failed
	if traced {
		out, err := traceLayers(w, s, sp, rep.Metrics, outDir, warmS)
		if err != nil {
			return rep, fmt.Errorf("%s traced run: %w", w.name, err)
		}
		rep.Correct = rep.Correct && out.fingerprint == cold.fingerprint
		rep.Attempted += out.attempted
		rep.Failed += out.failed
	}
	if scale == 1 && seed == defaultSeed && golden[w.name] != cold.fingerprint {
		rep.Correct = false
	}
	if !rep.Correct {
		rep.Failed = rep.Attempted
	}
	if rep.Metrics["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return rep, err
	}
	sp.end()
	if traced {
		return rep, sp.write(filepath.Join(outDir, w.name+".spans.json"))
	}
	return rep, nil
}

// traceLayers adds every per-layer metric: the engine and sched probes
// over the workload's requests, then the warm run once more with
// counting allocators, cluster.Serve spans and a CPU profile. warmS is
// the untraced warm run's wall time.
func traceLayers(w *workloadDef, s sim, sp *spans, m map[string]float64, outDir string, warmS float64) (outcome, error) {
	reqs, sys, maxBatch := s.probe()
	sp.begin("probe.engine")
	err := probeEngine(sys, reqs, maxBatch, m)
	sp.end()
	if err != nil {
		return outcome{}, err
	}
	sp.begin("probe.sched")
	probeSched(reqs, m)
	sp.end()

	tr := newTracer(sp)
	if err := s.arm(tr); err != nil {
		return outcome{}, err
	}
	prof := filepath.Join(outDir, w.name+".cpu.pprof")
	f, err := os.Create(prof)
	if err != nil {
		return outcome{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return outcome{}, err
	}
	sp.begin("run.traced")
	out, err := s.run(tr)
	tracedS := sp.end()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return outcome{}, err
	}

	tr.kvcacheMetrics(m)
	m["workload.gen_s"] = sp.total("workload.gen")
	m["kvcache.hit_rate"] = out.hitRate
	m["kvcache.preemptions"] = float64(out.preemptions)
	m["cluster.serve_s"] = sp.total("cluster.Serve")
	m["cluster.self_s"] = m["cluster.serve_s"] - m["kvcache.self_s"]
	m["sweep.points"] = float64(out.points)
	m["sweep.cold_ms_per_point"] = m["run_s"] * 1e3 / float64(out.points)
	m["sweep.warm_ms_per_point"] = m["warm_run_s"] * 1e3 / float64(out.points)
	m["trace.overhead"] = tracedS/warmS - 1
	return out, cpuShares(prof, m)
}

// cpuSeconds is the CPU time the process has used so far, user plus
// system, over all its threads. Unlike wall time it leaves out the time
// the host's hypervisor takes the CPUs away (steal), which on the
// baseline VM moved per-run medians by up to 39% (README.md).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // EFAULT or EINVAL: impossible with RUSAGE_SELF and a valid pointer
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// spawnChild measures one workload in a fresh child process and waits
// for it to exit.
func spawnChild(name string, seed uint64, traced bool) (childReport, error) {
	var rep childReport
	exe, err := os.Executable()
	if err != nil {
		return rep, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", name, "-seed", strconv.FormatUint(seed, 10), "-trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return rep, fmt.Errorf("child %s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return rep, fmt.Errorf("child %s: %w", name, err)
	}
	return rep, nil
}

// agree folds child reports into one verdict: every child correct and
// every fingerprint equal.
func agree(reps []childReport) (correct bool, attempted, failed int) {
	correct = true
	for _, r := range reps {
		correct = correct && r.Correct && r.Fingerprint == reps[0].Fingerprint
		attempted += r.Attempted
		failed += r.Failed
	}
	return correct && failed == 0, attempted, failed
}

// runTimed starts children of one workload, one at a time, while the
// next one is expected to finish within budget, and prints the medians
// of their end-to-end (or, traced, per-layer) metrics as one JSON line.
func runTimed(w *workloadDef, seed uint64, budget time.Duration, traced bool) error {
	start := time.Now()
	var reps []childReport
	for {
		rep, err := spawnChild(w.name, seed, traced)
		if err != nil {
			return err
		}
		reps = append(reps, rep)
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(len(reps)) > budget {
			break
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	var res struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	res.Correct, res.Attempted, res.Failed = agree(reps)
	res.Metrics = map[string]value{}
	table := endToEnd
	if traced {
		table = perLayer
	}
	for _, m := range table {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = r.Metrics[m.Name]
		}
		res.Metrics[m.Name] = value{summarize(m, xs).Median, m.Unit}
	}
	fmt.Fprintf(os.Stderr, "llmbench-bench: %s: %d children in %.1fs\n", w.name, len(reps), time.Since(start).Seconds())
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runFull measures every workload with untracedChildren untraced
// children and one traced child, writes the results file and prints
// every metric. It fails if any workload failed an operation or a
// fingerprint check.
func runFull(seed uint64, out string, golden map[string]string) error {
	res := resultsFile{
		Seed: seed, Commit: commit(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Note: sampleNote,
	}
	ok := true
	for i := range workloads {
		w := &workloads[i]
		var reps []childReport
		for r := 0; r < untracedChildren; r++ {
			rep, err := spawnChild(w.name, seed, false)
			if err != nil {
				return err
			}
			reps = append(reps, rep)
		}
		traced, err := spawnChild(w.name, seed, true)
		if err != nil {
			return err
		}
		wr := workloadResult{
			Name: w.name, Fingerprint: reps[0].Fingerprint,
			Golden:   seed == defaultSeed && golden[w.name] == reps[0].Fingerprint,
			EndToEnd: map[string]summary{}, PerLayer: map[string]layerValue{},
		}
		wr.Correct, wr.Attempted, wr.Failed = agree(append(reps, traced))
		for _, m := range resultMetrics {
			xs := make([]float64, len(reps))
			for i, r := range reps {
				if m == failedFrac {
					xs[i] = float64(r.Failed) / float64(r.Attempted)
				} else {
					xs[i] = r.Metrics[m.Name]
				}
			}
			wr.EndToEnd[m.Name] = summarize(m, xs)
		}
		for _, m := range perLayer {
			wr.PerLayer[m.Name] = layerValue{m.Unit, traced.Metrics[m.Name]}
		}
		ok = ok && wr.Correct
		res.Workloads = append(res.Workloads, wr)
		fmt.Fprintf(os.Stderr, "llmbench-bench: %s done (correct %t)\n", w.name, wr.Correct)
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	printResults(res)
	if !ok {
		return errors.New("a workload failed operations or its fingerprint check")
	}
	return nil
}

// printResults prints every metric of a results file with its unit.
func printResults(r resultsFile) {
	bw := bufio.NewWriter(os.Stdout)
	defer bw.Flush()
	fmt.Fprintf(bw, "commit %s, %s, GOMAXPROCS %d, nproc %d, seed %d\n%s\n",
		r.Commit, r.GoVersion, r.GOMAXPROCS, r.NProc, r.Seed, r.Note)
	for _, w := range r.Workloads {
		fmt.Fprintf(bw, "\n%s: correct %t, golden %t, attempted %d, failed %d\n",
			w.Name, w.Correct, w.Golden, w.Attempted, w.Failed)
		for _, m := range resultMetrics {
			s := w.EndToEnd[m.Name]
			fmt.Fprintf(bw, "  %-24s %12.6g %-6s [%.6g, %.6g] n=%d\n", m.Name, s.Median, s.Unit, s.Min, s.Max, s.N)
		}
		for _, m := range perLayer {
			v := w.PerLayer[m.Name]
			fmt.Fprintf(bw, "  %-24s %12.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
}

// commit is the VCS revision stamped into the binary, "unknown"
// outside a repository.
func commit() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
