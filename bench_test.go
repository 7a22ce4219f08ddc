package llmbench

// One benchmark per reproduced paper artifact: BenchmarkFigNN /
// BenchmarkTabN regenerates that figure or table end to end through
// the simulation engine, so `go test -bench=.` replays the paper's
// whole evaluation and reports how long each figure takes to
// reproduce. Micro-benchmarks for the core mechanisms follow.

import (
	"testing"

	"llmbench/internal/cluster"
	"llmbench/internal/des"
	"llmbench/internal/dtype"
	"llmbench/internal/experiments"
	"llmbench/internal/kvcache"
	"llmbench/internal/model"
	"llmbench/internal/perplexity"
	"llmbench/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1aBatchVsLength(b *testing.B)         { benchExperiment(b, "fig1a") }
func BenchmarkFig1bBlendedTokens(b *testing.B)         { benchExperiment(b, "fig1b") }
func BenchmarkFig2aKVCacheAblation(b *testing.B)       { benchExperiment(b, "fig2a") }
func BenchmarkFig2bKVBlockSize(b *testing.B)           { benchExperiment(b, "fig2b") }
func BenchmarkFig3Quantization(b *testing.B)           { benchExperiment(b, "fig3") }
func BenchmarkFig4aNASModels(b *testing.B)             { benchExperiment(b, "fig4a") }
func BenchmarkFig4bSpeculativeDecoding(b *testing.B)   { benchExperiment(b, "fig4b") }
func BenchmarkFig5aParallelism(b *testing.B)           { benchExperiment(b, "fig5a") }
func BenchmarkFig5bMoEParallelism(b *testing.B)        { benchExperiment(b, "fig5b") }
func BenchmarkFig6TRTLLM7B(b *testing.B)               { benchExperiment(b, "fig6") }
func BenchmarkFig7TRTLLM70B(b *testing.B)              { benchExperiment(b, "fig7") }
func BenchmarkFig8VLLM7B(b *testing.B)                 { benchExperiment(b, "fig8") }
func BenchmarkFig9VLLM70B(b *testing.B)                { benchExperiment(b, "fig9") }
func BenchmarkFig10PerplexityScatterA100(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11DSMIIScaling(b *testing.B)          { benchExperiment(b, "fig11") }
func BenchmarkFig12MixtralFrameworks(b *testing.B)     { benchExperiment(b, "fig12") }
func BenchmarkFig13LlamaCpp7B(b *testing.B)            { benchExperiment(b, "fig13") }
func BenchmarkFig14LlamaCppScaling(b *testing.B)       { benchExperiment(b, "fig14") }
func BenchmarkFig15FrameworksA100(b *testing.B)        { benchExperiment(b, "fig15") }
func BenchmarkFig16Power(b *testing.B)                 { benchExperiment(b, "fig16") }
func BenchmarkFig17MI250(b *testing.B)                 { benchExperiment(b, "fig17") }
func BenchmarkFig18SN40L7B(b *testing.B)               { benchExperiment(b, "fig18") }
func BenchmarkFig19SN40L70B(b *testing.B)              { benchExperiment(b, "fig19") }
func BenchmarkFig20Gaudi2(b *testing.B)                { benchExperiment(b, "fig20") }
func BenchmarkFig21TTFT(b *testing.B)                  { benchExperiment(b, "fig21") }
func BenchmarkFig22ITL(b *testing.B)                   { benchExperiment(b, "fig22") }
func BenchmarkFig23Accelerators(b *testing.B)          { benchExperiment(b, "fig23") }
func BenchmarkFig24AcceleratorsByLength(b *testing.B)  { benchExperiment(b, "fig24") }
func BenchmarkFig25PeakThroughput(b *testing.B)        { benchExperiment(b, "fig25") }
func BenchmarkFig29PerplexityScatterH100(b *testing.B) { benchExperiment(b, "fig29") }
func BenchmarkFig30TRTLLMScaling(b *testing.B)         { benchExperiment(b, "fig30") }
func BenchmarkFig31VLLMScaling(b *testing.B)           { benchExperiment(b, "fig31") }
func BenchmarkFig32LlamaCpp70B(b *testing.B)           { benchExperiment(b, "fig32") }
func BenchmarkFig33H100Frameworks(b *testing.B)        { benchExperiment(b, "fig33") }
func BenchmarkFig3470BFrameworks(b *testing.B)         { benchExperiment(b, "fig34") }
func BenchmarkFig35MI250VLLM(b *testing.B)             { benchExperiment(b, "fig35") }
func BenchmarkFig36MI250LlamaCpp(b *testing.B)         { benchExperiment(b, "fig36") }
func BenchmarkFig37MI250VLLM70B(b *testing.B)          { benchExperiment(b, "fig37") }
func BenchmarkFig38Gaudi70B(b *testing.B)              { benchExperiment(b, "fig38") }
func BenchmarkTab1Models(b *testing.B)                 { benchExperiment(b, "tab1") }
func BenchmarkTab2Hardware(b *testing.B)               { benchExperiment(b, "tab2") }
func BenchmarkTab3Frameworks(b *testing.B)             { benchExperiment(b, "tab3") }

// Extension experiments (ablations and future-work items).
func BenchmarkExt1AllDevicePower(b *testing.B)    { benchExperiment(b, "ext1") }
func BenchmarkExt2SpecDecGamma(b *testing.B)      { benchExperiment(b, "ext2") }
func BenchmarkExt3PagedVsMonolithic(b *testing.B) { benchExperiment(b, "ext3") }
func BenchmarkExt4ChunkedPrefill(b *testing.B)    { benchExperiment(b, "ext4") }
func BenchmarkExt5KVHeadNAS(b *testing.B)         { benchExperiment(b, "ext5") }

// --- core mechanism micro-benchmarks -------------------------------------

func BenchmarkEngineRunPoint(b *testing.B) {
	eng, err := NewEngine(System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM"})
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.Spec{Batch: 64, Input: 1024, Output: 1024}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineDecodeStep(b *testing.B) {
	eng, err := NewEngine(System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.DecodeStepSeconds(16, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPagedAllocator(b *testing.B) {
	m := model.MustGet("LLaMA-3-8B")
	b.ReportAllocs()
	b.ResetTimer()
	var seqs [64]kvcache.Seq
	for i := 0; i < b.N; i++ {
		alloc, err := kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), 20*(1<<30))
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < 64; s++ {
			seq, err := alloc.Alloc(512)
			if err != nil {
				b.Fatal(err)
			}
			seqs[s] = seq
		}
		for tok := 513; tok < 640; tok++ {
			for _, seq := range seqs {
				if err := alloc.Extend(seq, tok); err != nil {
					b.Fatal(err)
				}
			}
		}
		for _, seq := range seqs {
			alloc.Free(seq)
		}
	}
}

func BenchmarkContinuousServing(b *testing.B) {
	eng, err := NewEngine(System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM"})
	if err != nil {
		b.Fatal(err)
	}
	m := model.MustGet("LLaMA-3-8B")
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 5, Requests: 100, RatePerSec: 10, InputMean: 512, OutputMean: 128, LengthJitter: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc, err := kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), 18*(1<<30))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cluster.Serve(cluster.Config{
			Replicas: []cluster.Replica{{Engine: eng, Alloc: alloc}}, MaxBatch: 32,
		}, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPerplexityEvaluation(b *testing.B) {
	ev, err := perplexity.NewEvaluator()
	if err != nil {
		b.Fatal(err)
	}
	// Warm the corpus; benchmark a fresh capacity each iteration by
	// alternating models.
	names := perplexity.ScatterModels()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.ModelPerplexity(names[i%len(names)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt6RouterAblation(b *testing.B) { benchExperiment(b, "ext6") }
func BenchmarkExt7BatchAutotune(b *testing.B)  { benchExperiment(b, "ext7") }

func BenchmarkExt8PrefixSharing(b *testing.B) { benchExperiment(b, "ext8") }
func BenchmarkExt9Autoscaling(b *testing.B)   { benchExperiment(b, "ext9") }

// --- decode-pricing / coalescing benchmarks ------------------------------
//
// The three benchmarks below are the perf trajectory of the
// O(state-change) serving work (BENCH.md): a long-output engine point
// and the two serving simulators on a ≥1024-token-output trace.

// BenchmarkRunLongOutput is a single long-generation benchmark point:
// 2048 output tokens, the workload whose decode loop dominated Run
// before range pricing.
func BenchmarkRunLongOutput(b *testing.B) {
	eng, err := NewEngine(System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM"})
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.Spec{Batch: 8, Input: 256, Output: 2048}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// longOutputTrace is the serving workload of the coalescing
// benchmarks: bursty arrivals generating ≥ 1024 tokens each, so almost
// all simulated iterations are identical decode steps.
func longOutputTrace(b *testing.B, requests int) []workload.Request {
	b.Helper()
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 11, Requests: requests, RatePerSec: 0.5,
		InputMean: 256, OutputMean: 1024, LengthJitter: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	return reqs
}

func BenchmarkServeContinuous(b *testing.B) {
	eng, err := NewEngine(System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM"})
	if err != nil {
		b.Fatal(err)
	}
	m := model.MustGet("LLaMA-3-8B")
	reqs := longOutputTrace(b, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc, err := kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), 30*(1<<30))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cluster.Serve(cluster.Config{
			Replicas: []cluster.Replica{{Engine: eng, Alloc: alloc}}, MaxBatch: 16,
		}, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServeCluster(b *testing.B) {
	eng, err := NewEngine(System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM"})
	if err != nil {
		b.Fatal(err)
	}
	m := model.MustGet("LLaMA-3-8B")
	reqs := longOutputTrace(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replicas := make([]cluster.Replica, 4)
		for j := range replicas {
			alloc, err := kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), 30*(1<<30))
			if err != nil {
				b.Fatal(err)
			}
			replicas[j] = cluster.Replica{Engine: eng, Alloc: alloc}
		}
		if _, err := cluster.Serve(cluster.Config{
			Replicas: replicas, Policy: cluster.LeastLoaded, MaxBatch: 16,
		}, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClusterTrace is the shared workload of the replica-scaling
// benchmarks: bursty long-output arrivals sized so 8 and 32 replicas
// both stay busy. Fixed per replica count so numbers stay comparable
// across commits.
func benchClusterTrace(b *testing.B, requests int, rate float64) []workload.Request {
	b.Helper()
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 17, Requests: requests, RatePerSec: rate,
		InputMean: 256, OutputMean: 1024, LengthJitter: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	return reqs
}

func benchServeClusterN(b *testing.B, replicas int, reqs []workload.Request, cfg cluster.Config) {
	benchServeFleet(b, replicas, reqs, cfg, false)
}

// benchServeFleet serves reqs on replicas LLaMA-3-8B/A100/vLLM
// replicas per iteration. The fleet shares one private engine, built
// once (its step-cost memo warm after the first iteration) or, with
// coldMemo, afresh each iteration so every iteration prices a cold
// memo.
func benchServeFleet(b *testing.B, replicas int, reqs []workload.Request, cfg cluster.Config, coldMemo bool) {
	b.Helper()
	sys := System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM"}
	eng, err := NewEngine(sys)
	if err != nil {
		b.Fatal(err)
	}
	m := model.MustGet("LLaMA-3-8B")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if coldMemo {
			if eng, err = NewEngine(sys); err != nil {
				b.Fatal(err)
			}
		}
		reps := make([]cluster.Replica, replicas)
		for j := range reps {
			alloc, err := kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), 30*(1<<30))
			if err != nil {
				b.Fatal(err)
			}
			reps[j] = cluster.Replica{Engine: eng, Alloc: alloc}
		}
		cfg.Replicas = reps
		if _, err := cluster.Serve(cfg, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeCluster8/32 track the cluster DES at deployment scale
// (the autoscaling/router experiments the kernel exists to unlock).
func BenchmarkServeCluster8(b *testing.B) {
	benchServeClusterN(b, 8, benchClusterTrace(b, 128, 2),
		cluster.Config{Policy: cluster.LeastLoaded, MaxBatch: 16})
}

func BenchmarkServeCluster32(b *testing.B) {
	benchServeClusterN(b, 32, benchClusterTrace(b, 384, 8),
		cluster.Config{Policy: cluster.LeastLoaded, MaxBatch: 16})
}

// BenchmarkServeClusterStatic tracks multi-replica static batching on
// the cluster kernel — the policy × replicas grid point the static
// station port unlocked. One batch run is one DES event, so the cost
// is dominated by engine.Run pricing per collected batch.
func BenchmarkServeClusterStatic(b *testing.B) {
	benchServeClusterN(b, 8, benchClusterTrace(b, 128, 2),
		cluster.Config{Policy: cluster.LeastLoaded, MaxBatch: 16, Static: true})
}

// BenchmarkServeClusterStaticColdMemo is BenchmarkServeClusterStatic
// on a fresh engine per iteration, the cost a one-shot planner call
// pays: every collected batch's engine.Run prices a range at a new
// (batch, ctxStart) anchor, folded from the batch's master step table.
func BenchmarkServeClusterStaticColdMemo(b *testing.B) {
	benchServeFleet(b, 8, benchClusterTrace(b, 128, 2),
		cluster.Config{Policy: cluster.LeastLoaded, MaxBatch: 16, Static: true}, true)
}

// BenchmarkServeClusterDisagg tracks the disaggregated topology at the
// same fleet scale as BenchmarkServeCluster8: 2 prefill + 6 decode
// replicas, every request crossing the pool boundary as a kv-transfer
// event. The delta against the aggregated row is the price of the
// phase-split lifecycle (kv-transfer events and their deliveries).
func BenchmarkServeClusterDisagg(b *testing.B) {
	m := model.MustGet("LLaMA-3-8B")
	benchServeClusterN(b, 8, benchClusterTrace(b, 128, 2),
		cluster.Config{
			Policy: cluster.LeastLoaded, MaxBatch: 16, PrefillReplicas: 2,
			Transfer: des.TransferCost{
				BlockTokens: 16, BytesPerToken: m.KVBytesPerToken(dtype.FP16),
				GBPerS: 600, LatencyS: 3e-6,
			},
		})
}

// BenchmarkServeClusterPrefix tracks prefix-affinity routing over
// tiered allocators with chunked prefill — the full shared-prefix
// serving stack (PrefixPaged + host tier + Prefix router + fused
// slices) at the same fleet scale as BenchmarkServeCluster8. The
// allocs/op delta against that row is the price of the tier and the
// router's replica scan.
func BenchmarkServeClusterPrefix(b *testing.B) {
	eng, err := NewEngine(System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM"})
	if err != nil {
		b.Fatal(err)
	}
	m := model.MustGet("LLaMA-3-8B")
	const prefixTokens = 2048
	reqs, err := workload.ChatTrace(workload.ChatTraceConfig{
		Seed: 17, Requests: 256, RatePerSec: 12, BurstFactor: 1,
		InputMedian: 256, OutputMedian: 64, PrefixTokens: prefixTokens,
		Sigma: 0.3, MaxLen: 8192,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps := make([]cluster.Replica, 8)
		for j := range reps {
			gpu, err := kvcache.NewPrefixPaged(16, prefixTokens, m.KVBytesPerToken(dtype.FP16), 30*(1<<30))
			if err != nil {
				b.Fatal(err)
			}
			alloc, err := kvcache.NewTiered(gpu, 1<<30, kvcache.HostLink{GBPerS: 32, LatencyS: 5e-6})
			if err != nil {
				b.Fatal(err)
			}
			reps[j] = cluster.Replica{Engine: eng, Alloc: alloc}
		}
		if _, err := cluster.Serve(cluster.Config{
			Replicas: reps, Policy: cluster.Prefix, MaxBatch: 16,
			ChunkedPrefill: true, PrefillChunk: 256,
		}, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeClusterMillion is the streaming-stats smoke row: a
// million-request day replayed through an 8-replica fleet with
// incremental aggregation (cluster.Config.Streaming), so stats memory
// stays O(1) in trace length — allocs/op here are the kernel's own,
// not a million-entry ledger plus sort. BenchmarkServeClusterMillionExact
// is the ledgered reference the memory delta is measured against.
// BenchmarkServeClusterMillion32 is the kernel-throughput row: the same
// day on 32 replicas at 200 req/s, streamed: arrivals are dense enough
// that a station's window is cut at about every generated token.
// All three report events/s: kernel events (trace arrivals, kv-transfer
// deliveries and station events, des.EventCounts) per wall second,
// and priced/step: window step costs summed per decode step executed
// (at most 1 when each committed window step is summed once).
func benchServeClusterMillion(b *testing.B, replicas int, rate float64, streaming bool) {
	b.Helper()
	if testing.Short() {
		// The general bench smoke runs -short; the million-request rows
		// get their own dedicated CI invocation.
		b.Skip("million-request benchmark skipped in -short mode")
	}
	// Short chat turns at a rate the fleet sustains (~50 req/s against
	// ~200 req/s of capacity on 8 replicas), so the day is queueing,
	// not meltdown.
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 17, Requests: 1_000_000, RatePerSec: rate,
		InputMean: 256, OutputMean: 64, LengthJitter: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM"})
	if err != nil {
		b.Fatal(err)
	}
	m := model.MustGet("LLaMA-3-8B")
	// One arena across iterations, as a sweep worker would hold it:
	// after the first run the kernel's station shells, free lists, and
	// event buffers are recycled instead of reallocated.
	var scratch des.Scratch
	var counts des.EventCounts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps := make([]cluster.Replica, replicas)
		for j := range reps {
			alloc, err := kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), 30*(1<<30))
			if err != nil {
				b.Fatal(err)
			}
			reps[j] = cluster.Replica{Engine: eng, Alloc: alloc}
		}
		st, err := cluster.Serve(cluster.Config{
			Replicas: reps, Policy: cluster.LeastLoaded, MaxBatch: 32, Streaming: streaming,
			Scratch: &scratch, Counts: &counts,
		}, reqs)
		if err != nil {
			b.Fatal(err)
		}
		if st.Completed != len(reqs) {
			b.Fatalf("completed %d/%d", st.Completed, len(reqs))
		}
	}
	events := counts.Arrivals + counts.Transfers + counts.Events
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(counts.Priced)/float64(counts.DecodeSteps), "priced/step")
}

func BenchmarkServeClusterMillion(b *testing.B)      { benchServeClusterMillion(b, 8, 50, true) }
func BenchmarkServeClusterMillionExact(b *testing.B) { benchServeClusterMillion(b, 8, 50, false) }
func BenchmarkServeClusterMillion32(b *testing.B)    { benchServeClusterMillion(b, 32, 200, true) }

// BenchmarkServeAutoscale is the bench-smoke guard for the dynamic
// capacity path (bursty chat load, replicas 1..8).
func BenchmarkServeAutoscale(b *testing.B) {
	eng, err := NewEngine(System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"})
	if err != nil {
		b.Fatal(err)
	}
	m := model.MustGet("Mistral-7B")
	factory := func() (cluster.Replica, error) {
		alloc, err := kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), 16*(1<<30))
		if err != nil {
			return cluster.Replica{}, err
		}
		return cluster.Replica{Engine: eng, Alloc: alloc}, nil
	}
	reqs, err := workload.ChatTrace(workload.ChatTraceConfig{
		Seed: 61, Requests: 300, RatePerSec: 15, BurstFactor: 6, BurstLenS: 4,
		InputMedian: 512, OutputMedian: 128, Sigma: 0.7, MaxLen: 4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first, err := factory()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cluster.Serve(cluster.Config{
			Replicas: []cluster.Replica{first}, Policy: cluster.LeastLoaded, MaxBatch: 16,
			Autoscale: &cluster.Autoscale{Factory: factory, Max: 8, UpOutstanding: 12},
		}, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSweep tracks the serving-capacity grid end to end: a
// rate × replicas × policy ServeSweep on one cached engine
// (Parallelism 1 so numbers are comparable across hosts).
func BenchmarkServeSweep(b *testing.B) {
	cfg := ServeSweepConfig{
		System:   System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"},
		MaxBatch: 16,
		Seed:     23, Requests: 60, InputMean: 256, OutputMean: 64,
	}
	grid := ServeGrid{
		Rates:       []float64{2, 6},
		Replicas:    []int{1, 2},
		Policies:    []ServePolicy{{}, {LeastLoaded: true}},
		Parallelism: 1,
	}
	benchServeSweep(b, cfg, grid)
}

// BenchmarkServeSweepStatic is the static-policy serving grid on
// bursty chat traffic: static and static/least-loaded fleets across
// replica counts and burst factors — the cube the station port and
// the trace axes completed (LeanStats, as a big grid would run).
func BenchmarkServeSweepStatic(b *testing.B) {
	cfg := ServeSweepConfig{
		System:   System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"},
		MaxBatch: 16,
		Seed:     23, Requests: 60, InputMean: 256, OutputMean: 64,
		LeanStats: true,
	}
	grid := ServeGrid{
		Rates:        []float64{2, 6},
		Replicas:     []int{1, 2},
		Policies:     []ServePolicy{{Static: true}, {Static: true, LeastLoaded: true}},
		BurstFactors: []float64{1, 4},
		Parallelism:  1,
	}
	benchServeSweep(b, cfg, grid)
}

// benchServeSweep runs one ServeSweep per iteration and reports
// ms/point, the sweep layer's cost per grid point.
func benchServeSweep(b *testing.B, cfg ServeSweepConfig, grid ServeGrid) {
	b.Helper()
	points := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := ServeSweep(cfg, grid)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Err != nil {
				b.Fatal(p.Err)
			}
		}
		points += len(pts)
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(points), "ms/point")
}

// --- concurrency / caching benchmarks ------------------------------------
//
// BenchmarkReportSerial vs BenchmarkReportParallel tracks the anchor
// report's fan-out speedup (the -j flag); the Sweep pair tracks what
// the engine cache saves over rebuilding the engine per point.

func benchReport(b *testing.B, parallelism int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := VerifyAnchors(parallelism); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReportSerial(b *testing.B)   { benchReport(b, 1) }
func BenchmarkReportParallel(b *testing.B) { benchReport(b, 4) }

// Parallelism 1 so the pair below differs only in engine
// construction: the cached variant builds once, the uncached baseline
// rebuilds per point.
var benchGrid = Grid{
	Batches:     []int{1, 8, 16, 32, 64},
	Lengths:     []int{128, 256, 512, 1024, 2048},
	Parallelism: 1,
}

// BenchmarkSweepEngineCache runs the paper's full 25-point grid with
// the engine built once through the shared cache.
func BenchmarkSweepEngineCache(b *testing.B) {
	sys := System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := Sweep(sys, benchGrid)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Err != nil {
				b.Fatal(p.Err)
			}
		}
	}
}

// BenchmarkSweepUncachedEngines is the pre-pool baseline: the same
// grid with a fresh NewEngine at every point, paying catalog lookup +
// engine construction per point (what Run did before the cache).
func BenchmarkSweepUncachedEngines(b *testing.B) {
	sys := System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range benchGrid.Lengths {
			for _, bs := range benchGrid.Batches {
				eng, err := NewEngine(sys)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(workload.Spec{Batch: bs, Input: l, Output: l}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
