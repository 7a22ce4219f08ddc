// Command llmbench-sweep runs ad-hoc parameter sweeps outside the
// paper's fixed figures: pick a model and sweep batch sizes, sequence
// lengths, and optionally devices, frameworks, and quantization
// schemes in one call, printing a Markdown table of throughput, TTFT,
// ITL, and power.
//
// With -serve the sweep turns into a serving-capacity grid on the
// discrete-event simulators — arrival rates × replica counts × batch
// caps × scheduling policies, optionally × trace shape and shared
// prefix — printing throughput, latency and queue-delay percentiles,
// and preemptions per point. Shape, prefix and disagg topology axes
// add their own columns (burst and length mix, prefix share and
// cache-hit rate, mean KV transfer delay).
//
// Every comma-separated list flag is one row of the llmbench.Axes
// table: -batches and -lengths (offline), -devices, -frameworks and
// -schemes (both modes), and -rates, -replicas, -maxbatches,
// -policies, -bursts, -mixes and -prefix-shares (-serve). Each flag's
// help text is its row's usage; `llmbench-sweep -h` lists them. A
// list is trimmed per element and checked exactly as ServeSweep checks
// a grid built in code, so a bad element fails at flag-parse time,
// naming its flag.
//
// Points are evaluated concurrently (-j bounds the workers, 0 = all
// cores) but always print in grid order, so output is identical at
// any parallelism.
//
// Examples:
//
//	llmbench-sweep -model LLaMA-3-8B -device H100 -framework TRT-LLM \
//	    -batches 1,8,16,32,64 -lengths 128,1024 -tp 1 -j 4
//	llmbench-sweep -model LLaMA-3-8B -devices A100,H100,MI300X \
//	    -frameworks vLLM,TRT-LLM -batches 16 -lengths 1024
//	llmbench-sweep -model LLaMA-3-8B -device H100 -framework TRT-LLM \
//	    -schemes fp16:fp16,fp8:fp8,int8:fp8 -batches 16 -lengths 1024
//	llmbench-sweep -serve -model Mistral-7B -device A100 -framework vLLM \
//	    -rates 5,10,20,40 -replicas 1,2,4 -maxbatches 32 \
//	    -policies continuous:ll,autoscale -requests 200
//	llmbench-sweep -serve -model Mistral-7B -device A100 -framework vLLM \
//	    -rates 10,20 -replicas 2,8 -policies static,continuous \
//	    -bursts 1,4 -mixes 512:128,2048:256
//	llmbench-sweep -serve -model Mistral-7B -device A100 -framework vLLM \
//	    -rates 10,20,40 -replicas 4,8 -policies ll,ll:disagg/1:3 -slo 6
//	llmbench-sweep -serve -model Mistral-7B -device A100 -framework vLLM \
//	    -rates 10,20,40 -replicas 4 -policies rr,ll,prefix \
//	    -prefix-shares 0.5 -mixes 1024:128 -slo 6
//	llmbench-sweep -serve -model Mistral-7B -rates 20 -requests 100000 \
//	    -record day.trace -stream
//	llmbench-sweep -serve -model Mistral-7B -trace day.trace \
//	    -replicas 2,4,8 -policies continuous:ll,static -slo 6 -stream
//
// -record captures the sweep's synthesized trace to a versioned file
// (see TRACES.md); -trace replays a recorded file at every point —
// at its native rate when -rates is absent, rescaled to each rate
// otherwise. -slo prints each configuration's capacity knee, and
// -stream aggregates completions incrementally (P² percentile
// sketches, O(1) memory) for million-request replays.
//
// -cpuprofile and -memprofile write pprof profiles of the sweep (CPU
// samples over the whole run; a heap snapshot after it), so a kernel
// or allocator regression can be diagnosed straight from the
// production command instead of a throwaway harness:
//
//	llmbench-sweep -serve -model Mistral-7B -rates 20,40 -replicas 4 \
//	    -requests 100000 -stream -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof -top cpu.out
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"llmbench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine is the line main prints for a failed sweep: the error
// behind exactly one prefix, the command's. Errors from the llmbench
// package carry their own "llmbench: " prefix, which gives way to it.
func errorLine(err error) string {
	return "llmbench-sweep: " + strings.TrimPrefix(err.Error(), "llmbench: ")
}

// axisDefaults are the list flags' command-line defaults; every other
// axis starts unset.
var axisDefaults = map[string]string{
	"batches":    "1,16,32,64",
	"lengths":    "1024",
	"replicas":   "1",
	"maxbatches": "32",
	"policies":   "continuous",
}

// axisFlag is one llmbench.Axes row as a flag: each value is applied
// with Set to every grid that has the axis.
type axisFlag struct {
	def   string
	apply func(list string) error
}

func (f *axisFlag) String() string        { return f.def }
func (f *axisFlag) Set(list string) error { return f.apply(list) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("llmbench-sweep", flag.ContinueOnError)
	var (
		modelName = fs.String("model", "LLaMA-3-8B", "model name (see 'llmbench catalog')")
		device    = fs.String("device", "A100", "accelerator name")
		fw        = fs.String("framework", "vLLM", "framework name")
		tp        = fs.Int("tp", 1, "tensor-parallel degree")
		pp        = fs.Int("pp", 1, "pipeline-parallel degree")
		ep        = fs.Int("ep", 1, "expert-parallel degree")
		weights   = fs.String("weights", "", "weight precision (default fp16)")
		kv        = fs.String("kv", "", "KV-cache precision (default fp16)")
		j         = fs.Int("j", 0, "sweep parallelism (0 = all cores)")

		serve  = fs.Bool("serve", false, "serving-capacity sweep (rates × replicas × policies) instead of offline points")
		hostKV = fs.Float64("hostkv", 0,
			"per-replica CPU offload tier for demoted prefix blocks in GiB (-serve, with -prefix-shares); "+
				"0 mirrors the device KV budget")
		chunked = fs.Bool("chunked", false,
			"chunked prefill on every replica (-serve): prompts prefill in 512-token slices fused "+
				"into decode iterations, so admission never stalls running requests; pairs with "+
				"-policies prefix (affinity without queueing behind whole prefills); "+
				"rejects static and disagg policy entries per point")
		sigma = fs.Float64("sigma", 0,
			"lognormal length spread for chat traces (-serve, with -bursts/-mixes/-prefix-shares); "+
				"0 = the 0.7 default (heavy chat tails), lower models templated traffic whose tight "+
				"output tail lets prefix-cache routing dominate the tail percentiles")
		requests   = fs.Int("requests", 200, "requests per serving point (-serve)")
		inMean     = fs.Int("inmean", 512, "mean prompt tokens (-serve)")
		outMean    = fs.Int("outmean", 128, "mean generated tokens (-serve)")
		seed       = fs.Uint64("seed", 42, "trace seed (-serve)")
		kvBudget   = fs.Float64("kvbudget", 0, "per-replica KV pool in GiB, 0 = auto (-serve)")
		slo        = fs.Float64("slo", 0, "P99 latency SLO in seconds (-serve); prints each configuration's capacity knee")
		tracePath  = fs.String("trace", "", "replay a recorded trace file at every point (-serve); -rates then rescales it, absent -rates replays at native rate")
		record     = fs.String("record", "", "record the sweep's synthesized trace to this file (-serve); the grid must pin one rate/shape position")
		stream     = fs.Bool("stream", false, "streaming stats (-serve): O(1) memory percentile sketches for million-request points")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file (inspect with 'go tool pprof')")
		memprofile = fs.String("memprofile", "", "write an end-of-sweep heap profile to this file (inspect with 'go tool pprof')")
	)
	var grid llmbench.Grid
	var sgrid llmbench.ServeGrid
	for _, a := range llmbench.Axes {
		f := &axisFlag{def: axisDefaults[a.Name], apply: func(list string) error {
			if a.Offline {
				if err := grid.Set(a.Name, list); err != nil {
					return err
				}
			}
			if a.Serve {
				return sgrid.Set(a.Name, list)
			}
			return nil
		}}
		if f.def != "" {
			if err := f.apply(f.def); err != nil {
				return err
			}
		}
		usage := "comma-separated " + a.Usage
		if !a.Offline {
			usage += " (-serve)"
		}
		fs.Var(f, a.Name, usage)
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	// -slo is validated here, at parse time, like every list flag: a
	// NaN or infinite SLO would otherwise make every (or no) point
	// "compliant" deep inside the knee fold.
	if err := validateSLO(*slo); err != nil {
		return err
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	sys := llmbench.System{
		Model: *modelName, Device: *device, Framework: *fw,
		TP: *tp, PP: *pp, EP: *ep, Weights: *weights, KV: *kv,
	}
	if *serve {
		sgrid.Parallelism = *j
		cfg := llmbench.ServeSweepConfig{
			System: sys, KVBudgetGiB: *kvBudget, HostKVGiB: *hostKV,
			Seed: *seed, Requests: *requests, InputMean: *inMean, OutputMean: *outMean,
			ChunkedPrefill: *chunked, Sigma: *sigma,
			StreamStats: *stream,
		}
		return serveSweep(stdout, cfg, sgrid, *slo, *tracePath, *record)
	}

	grid.Parallelism = *j
	pts, err := llmbench.Sweep(sys, grid)
	if err != nil {
		return err
	}
	axes := len(grid.Devices) > 0 || len(grid.Frameworks) > 0 || len(grid.Schemes) > 0
	if axes {
		fmt.Fprintf(stdout, "### %s ×%d sweep\n\n", *modelName, (*tp)*(*pp)*(*ep))
		fmt.Fprintln(stdout, "| Device | Framework | W/KV | Batch | Length | Throughput (tok/s) | TTFT (s) | ITL (ms) | Power (W) | tok/s/W |")
		fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|---|---|---|")
	} else {
		fmt.Fprintf(stdout, "### %s on %s×%d via %s\n\n", *modelName, *device, (*tp)*(*pp)*(*ep), *fw)
		fmt.Fprintln(stdout, "| Batch | Length | Throughput (tok/s) | TTFT (s) | ITL (ms) | Power (W) | tok/s/W |")
		fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|")
	}
	for _, p := range pts {
		prefix := ""
		if axes {
			prefix = fmt.Sprintf("| %s | %s | %s/%s ", p.Device, p.Framework,
				orFP16(p.Scheme.Weights), orFP16(p.Scheme.KV))
		}
		if p.Err != nil {
			fmt.Fprintf(stdout, "%s| %d | %d | — (%v) | | | | |\n", prefix, p.Batch, p.Length, p.Err)
			continue
		}
		res := p.Result
		fmt.Fprintf(stdout, "%s| %d | %d | %.0f | %.3f | %.3f | %.0f | %.2f |\n",
			prefix, p.Batch, p.Length, res.Throughput, res.TTFTSeconds, res.ITLSeconds*1000,
			res.TotalPowerWatts, res.TokensPerSecPerW)
	}
	return nil
}

// serveSweep runs the serving-capacity grid — replaying tracePath or
// recording its synthesized trace to record when set — and prints its
// Markdown table, followed by each configuration's knee when slo > 0.
func serveSweep(w io.Writer, cfg llmbench.ServeSweepConfig, grid llmbench.ServeGrid, slo float64, tracePath, record string) error {
	if len(grid.Rates) == 0 && tracePath == "" {
		// With -trace an absent -rates replays at the native rate.
		return fmt.Errorf("-serve needs -rates (e.g. -rates 5,10,20) or -trace")
	}
	shaped := len(grid.BurstFactors) > 0 || len(grid.LengthMixes) > 0
	// A prefix-share axis adds its own pair of columns: the share each
	// point ran with and the cache hit rate the fleet achieved — the
	// numbers the axis exists to compare across routing policies.
	prefixed := len(grid.PrefixShares) > 0
	if tracePath != "" {
		if shaped || prefixed {
			return fmt.Errorf("-trace is incompatible with -bursts/-mixes/-prefix-shares: the recorded trace is the traffic shape")
		}
		if record != "" {
			return fmt.Errorf("-record conflicts with -trace: the grid would replay, not synthesize")
		}
		var err error
		if grid.Trace, err = readTrace(tracePath); err != nil {
			return err
		}
	}
	if record != "" {
		if err := recordTrace(record, cfg, grid); err != nil {
			return err
		}
	}
	pts, err := llmbench.ServeSweep(cfg, grid)
	if err != nil {
		return err
	}
	axes := len(grid.Devices) > 0 || len(grid.Frameworks) > 0 || len(grid.Schemes) > 0
	// Any disagg policy adds the transfer-delay column — the metric the
	// topology axis exists to expose — the same way the configuration
	// and shape axes add theirs.
	disagg := false
	for _, pol := range grid.Policies {
		if pol.Disagg() {
			disagg = true
		}
	}
	switch {
	case tracePath != "":
		fmt.Fprintf(w, "### %s serving sweep (replaying %d recorded requests from %s)\n\n",
			cfg.System.Model, len(grid.Trace), tracePath)
	case shaped || prefixed:
		fmt.Fprintf(w, "### %s serving sweep (%d reqs/point, bursty chat traffic)\n\n", cfg.System.Model, cfg.Requests)
	default:
		fmt.Fprintf(w, "### %s serving sweep (%d reqs/point, in ~%d, out ~%d tokens)\n\n",
			cfg.System.Model, cfg.Requests, cfg.InputMean, cfg.OutputMean)
	}
	prefixHdr := ""
	if axes {
		prefixHdr = "| Device | Framework | W/KV "
	}
	shapeHdr := ""
	if shaped {
		shapeHdr = " Burst | In:Out |"
	}
	shareHdr := ""
	if prefixed {
		shareHdr = " Prefix |"
	}
	hitHdr := ""
	if prefixed {
		hitHdr = " Hit (%) |"
	}
	xferHdr := ""
	if disagg {
		xferHdr = " Xfer (ms) |"
	}
	fmt.Fprintf(w, "%s| Policy | Replicas | MaxBatch |%s%s Rate (req/s) | Throughput (tok/s) | p50 (s) | p95 (s) | p99 (s) | Queue p50/p95/p99 (s) |%s%s Preempt |\n",
		prefixHdr, shapeHdr, shareHdr, hitHdr, xferHdr)
	cols := 10
	if axes {
		cols += 3
	}
	if shaped {
		cols += 2
	}
	if prefixed {
		cols += 2
	}
	if disagg {
		cols++
	}
	fmt.Fprintln(w, "|"+strings.Repeat("---|", cols))
	for _, p := range pts {
		prefix := ""
		if axes {
			prefix = fmt.Sprintf("| %s | %s | %s/%s ", p.Device, p.Framework,
				orFP16(p.Scheme.Weights), orFP16(p.Scheme.KV))
		}
		shape := ""
		if shaped {
			shape = fmt.Sprintf(" ×%g | %d:%d |", p.BurstFactor, p.Mix.Input, p.Mix.Output)
		}
		share := ""
		if prefixed {
			share = fmt.Sprintf(" %g |", p.PrefixShare)
		}
		policy := p.Policy.String()
		if p.PeakReplicas > 0 {
			policy = fmt.Sprintf("%s (peak %d)", policy, p.PeakReplicas)
		}
		hit := ""
		if prefixed {
			hit = fmt.Sprintf(" %.1f |", p.Stats.CacheHitRate*100)
		}
		xfer := ""
		if disagg {
			xfer = fmt.Sprintf(" %.3f |", p.Stats.MeanTransferDelay*1000)
		}
		if p.Err != nil {
			blank := ""
			if prefixed {
				blank += " |"
			}
			if disagg {
				blank += " |"
			}
			fmt.Fprintf(w, "%s| %s | %d | %d |%s%s %g | — (%v) | | | | |%s |\n",
				prefix, policy, p.Replicas, p.MaxBatch, shape, share, p.Rate, p.Err, blank)
			continue
		}
		s := p.Stats
		fmt.Fprintf(w, "%s| %s | %d | %d |%s%s %g | %.0f | %.2f | %.2f | %.2f | %.2f/%.2f/%.2f |%s%s %d |\n",
			prefix, policy, p.Replicas, p.MaxBatch, shape, share, p.Rate, s.Throughput,
			s.P50Latency, s.P95Latency, s.P99Latency,
			s.P50QueueDelay, s.P95QueueDelay, s.P99QueueDelay, hit, xfer, s.Preemptions)
	}
	if slo > 0 {
		knees, err := llmbench.Knees(pts, slo)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nKnee per configuration (highest swept rate with p99 ≤ %gs):\n\n", slo)
		for _, k := range knees {
			name := fmt.Sprintf("%s, %d replica(s), mb %d", k.Policy, k.Replicas, k.MaxBatch)
			if axes {
				name = fmt.Sprintf("%s/%s %s", k.Device, k.Framework, name)
			}
			if shaped {
				name = fmt.Sprintf("%s, ×%g %d:%d", name, k.BurstFactor, k.Mix.Input, k.Mix.Output)
			}
			if prefixed {
				name = fmt.Sprintf("%s, prefix %g", name, k.PrefixShare)
			}
			if k.Met {
				fmt.Fprintf(w, "- %s: %g req/s (p99 %.2fs, %.0f tok/s)\n", name, k.Rate, k.Stats.P99Latency, k.Stats.Throughput)
			} else {
				fmt.Fprintf(w, "- %s: no swept rate meets the SLO\n", name)
			}
		}
	}
	return nil
}

// readTrace replays a recorded trace file (see TRACES.md).
func readTrace(path string) ([]llmbench.TraceRequest, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("-trace: %w", err)
	}
	defer file.Close()
	reqs, _, err := llmbench.ReadTrace(file)
	if err != nil {
		return nil, fmt.Errorf("-trace %s: %w", path, err)
	}
	return reqs, nil
}

// recordTrace captures the one-position grid's synthesized trace to a
// versioned trace file; the sweep then runs on exactly the recorded
// arrivals, so a later -trace replay reproduces it bit for bit.
func recordTrace(path string, cfg llmbench.ServeSweepConfig, grid llmbench.ServeGrid) error {
	reqs, err := llmbench.ServePointTrace(cfg, grid)
	if err != nil {
		return fmt.Errorf("-record: %w", err)
	}
	file, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-record: %w", err)
	}
	meta := llmbench.TraceMeta{Source: fmt.Sprintf("llmbench-sweep seed=%d requests=%d", cfg.Seed, cfg.Requests)}
	if err := llmbench.WriteTrace(file, reqs, meta); err != nil {
		file.Close()
		return fmt.Errorf("-record: %w", err)
	}
	if err := file.Close(); err != nil {
		return fmt.Errorf("-record: %w", err)
	}
	fmt.Fprintf(os.Stderr, "llmbench-sweep: recorded %d requests to %s\n", len(reqs), path)
	return nil
}

func orFP16(s string) string {
	if s == "" {
		return "fp16"
	}
	return s
}

// validateSLO rejects negative, NaN, and infinite -slo values at flag
// parse time; 0 means no SLO was requested.
func validateSLO(v float64) error {
	if v != 0 && (!(v > 0) || math.IsInf(v, 0)) {
		return fmt.Errorf("bad -slo value %v: want a positive, finite number of seconds", v)
	}
	return nil
}

// startProfiles starts CPU profiling and arranges the end-of-run heap
// snapshot per the -cpuprofile/-memprofile flags; the returned stop
// function must run before run returns. Empty paths are no-ops.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "llmbench-sweep: -cpuprofile:", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "llmbench-sweep: -memprofile:", err)
				return
			}
			runtime.GC() // snapshot live heap, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "llmbench-sweep: -memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "llmbench-sweep: -memprofile:", err)
			}
		}
	}, nil
}
