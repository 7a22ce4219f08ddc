// serving simulates a chatbot deployment — the workload the paper's
// introduction motivates — under Poisson arrivals, and contrasts the
// two batch schedulers of §IV-A1: Orca-style continuous batching vs
// traditional static batching, at increasing load.
//
//	go run ./examples/serving
package main

import (
	"fmt"
	"log"

	"llmbench"
)

func main() {
	cfg := llmbench.ServeSweepConfig{
		System:   llmbench.System{Model: "Mistral-7B", Device: "H100", Framework: "vLLM"},
		Replicas: 1, MaxBatch: 32,
		Seed: 42, Requests: 200, InputMean: 512, OutputMean: 128,
	}
	fmt.Println("Chat serving: Mistral-7B on one H100 via vLLM")
	fmt.Println("200 requests, prompts ~512 tokens, replies ~128 tokens")
	fmt.Println()
	fmt.Printf("%-10s %-12s %9s %9s %9s %9s %9s %9s %7s\n",
		"load", "scheduler", "tok/s", "p50 lat", "p95 lat", "p99 lat", "p99 queue", "mean TTFT", "preempt")

	// One sweep per load level: a sweep seeds each rate of its Rates
	// axis separately, and every load level here replays the one
	// seed-42 trace shape.
	for _, rate := range []float64{2, 8, 20} {
		pts, err := llmbench.ServeSweep(cfg, llmbench.ServeGrid{
			Rates:    []float64{rate},
			Policies: []llmbench.ServePolicy{{}, {Static: true}},
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range pts {
			if p.Err != nil {
				log.Fatal(p.Err)
			}
			name := "continuous"
			if p.Policy.Static {
				name = "static"
			}
			stats := p.Stats
			fmt.Printf("%-10s %-12s %9.0f %8.2fs %8.2fs %8.2fs %8.2fs %8.2fs %7d\n",
				fmt.Sprintf("%.0f req/s", rate), name,
				stats.Throughput, stats.P50Latency, stats.P95Latency, stats.P99Latency,
				stats.P99QueueDelay, stats.MeanTTFT, stats.Preemptions)
		}
	}

	fmt.Println()
	fmt.Println("Continuous batching admits requests at iteration granularity, so")
	fmt.Println("it keeps the device busy: higher token throughput and lower tail")
	fmt.Println("latency at every load level — the §IV-A1 result.")
}
