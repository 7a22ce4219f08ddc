package experiments

// Third batch of extension experiments:
//
//   ext8 — prefix sharing (vLLM's shared system-prompt blocks): how
//          much serving throughput a shared 512-token system prompt
//          buys at tight KV budgets.
//   ext9 — autoscaling under bursty chat load: the replica-count
//          trajectory and what it costs/saves vs fixed capacity.

import (
	"llmbench/internal/cluster"
	"llmbench/internal/dtype"
	"llmbench/internal/engine"
	"llmbench/internal/framework"
	"llmbench/internal/hw"
	"llmbench/internal/kvcache"
	"llmbench/internal/metrics"
	"llmbench/internal/model"
	"llmbench/internal/parallel"
	"llmbench/internal/workload"
)

func init() {
	register(&Experiment{
		ID:       "ext8",
		Title:    "Extension: prefix sharing for a common system prompt (vLLM mechanism)",
		Workload: "Mistral-7B on A100, 512-token shared prefix, KV budget {2..8} GiB",
		Modules:  []string{"kvcache", "sched"},
		Run:      ext8,
	})
	register(&Experiment{
		ID:       "ext9",
		Title:    "Extension: autoscaling replicas under bursty chat load",
		Workload: "Mistral-7B on A100, 6x bursts, replicas 1..6",
		Modules:  []string{"cluster", "workload"},
		Run:      ext9,
	})
}

func ext8() (*Output, error) {
	fig := &metrics.Figure{ID: "ext8", Title: "Prefix sharing vs plain paging (512-token system prompt)",
		XLabel: "KV budget (GiB)", YLabel: "Serving throughput (tokens/s)"}
	eng, err := mk("Mistral-7B", "A100", "vLLM", parallel.Single)
	if err != nil {
		return nil, err
	}
	m := model.MustGet("Mistral-7B")
	// Every request carries the same 512-token system prompt plus a
	// ~128-token user turn.
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 19, Requests: 150, RatePerSec: 15,
		InputMean: 640, OutputMean: 128, LengthJitter: 0.1,
	})
	if err != nil {
		return nil, err
	}
	for _, budget := range []float64{2, 4, 6, 8} {
		bytes := budget * (1 << 30)
		plain, err := kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), bytes)
		if err != nil {
			return nil, err
		}
		ps, err := cluster.Serve(cluster.Config{Replicas: []cluster.Replica{{Engine: eng, Alloc: plain}}, MaxBatch: 48}, reqs)
		if err != nil {
			return nil, err
		}
		fig.Add("plain paged", budget, ps.Throughput)

		shared, err := kvcache.NewPrefixPaged(16, 512, m.KVBytesPerToken(dtype.FP16), bytes)
		if err != nil {
			return nil, err
		}
		ss, err := cluster.Serve(cluster.Config{Replicas: []cluster.Replica{{Engine: eng, Alloc: shared}}, MaxBatch: 48}, reqs)
		if err != nil {
			return nil, err
		}
		fig.Add("prefix shared", budget, ss.Throughput)
		fig.Note("budget %.0f GiB: plain preempted %d times, shared %d times",
			budget, ps.Preemptions, ss.Preemptions)
	}
	return &Output{Figure: fig}, nil
}

func ext9() (*Output, error) {
	fig := &metrics.Figure{ID: "ext9", Title: "Autoscaling vs fixed capacity under bursty load (Mistral-7B, A100)",
		XLabel: "Fixed replica count (0 = autoscaled 1..6)", YLabel: "Mean latency (s) / replica-seconds"}
	m := model.MustGet("Mistral-7B")
	factory := func() (cluster.Replica, error) {
		eng, err := engine.New(engine.Config{
			Model:     m,
			Device:    hw.MustGet("A100"),
			Framework: framework.MustGet("vLLM"),
		})
		if err != nil {
			return cluster.Replica{}, err
		}
		alloc, err := kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), 16*(1<<30))
		if err != nil {
			return cluster.Replica{}, err
		}
		return cluster.Replica{Engine: eng, Alloc: alloc}, nil
	}
	reqs, err := workload.ChatTrace(workload.ChatTraceConfig{
		Seed: 71, Requests: 400, RatePerSec: 12, BurstFactor: 6, BurstLenS: 4,
		InputMedian: 512, OutputMedian: 128, Sigma: 0.7, MaxLen: 4096,
	})
	if err != nil {
		return nil, err
	}
	// Fixed capacities.
	for _, n := range []int{1, 2, 4, 6} {
		reps := make([]cluster.Replica, n)
		for i := range reps {
			r, err := factory()
			if err != nil {
				return nil, err
			}
			reps[i] = r
		}
		stats, err := cluster.Serve(cluster.Config{Replicas: reps, Policy: cluster.LeastLoaded, MaxBatch: 16}, reqs)
		if err != nil {
			return nil, err
		}
		fig.Add("fixed [mean lat]", float64(n), stats.MeanLatency)
		fig.Add("fixed [replica-s]", float64(n), float64(n)*stats.MakespanS)
	}
	// Autoscaled, from one replica.
	first, err := factory()
	if err != nil {
		return nil, err
	}
	auto, err := cluster.Serve(cluster.Config{
		Replicas: []cluster.Replica{first}, Policy: cluster.LeastLoaded, MaxBatch: 16,
		Autoscale: &cluster.Autoscale{Factory: factory, Max: 6, UpOutstanding: 12},
	}, reqs)
	if err != nil {
		return nil, err
	}
	fig.Add("autoscaled [mean lat]", 0, auto.MeanLatency)
	// Replica-seconds actually provisioned: integrate the trajectory.
	fig.Add("autoscaled [replica-s]", 0, replicaSeconds(auto, 1))
	fig.Note("autoscaler peaked at %d replicas over %d scale events", auto.PeakReplicas, len(auto.ScaleEvents))
	return &Output{Figure: fig}, nil
}

// replicaSeconds integrates an autoscaled run's capacity trajectory
// from its initial fleet of initial replicas to its makespan.
func replicaSeconds(st cluster.Stats, initial int) float64 {
	cur, last := initial, 0.0
	total := 0.0
	for _, e := range st.ScaleEvents {
		total += float64(cur) * (e.TimeS - last)
		cur = e.Replicas
		last = e.TimeS
	}
	total += float64(cur) * (st.MakespanS - last)
	return total
}
