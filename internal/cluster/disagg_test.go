package cluster

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"llmbench/internal/des"
	"llmbench/internal/dtype"
	"llmbench/internal/model"
)

// testTransfer prices kv-transfers like the serving surface does:
// 16-token paged blocks at the model's fp16 KV footprint over an
// A100-class interconnect (600 GB/s, 3 µs).
func testTransfer(t *testing.T) des.TransferCost {
	t.Helper()
	m := model.MustGet("Mistral-7B")
	return des.TransferCost{
		BlockTokens:   16,
		BytesPerToken: m.KVBytesPerToken(dtype.FP16),
		GBPerS:        600,
		LatencyS:      3e-6,
	}
}

func disaggConfig(t *testing.T, prefill, total int, policy Policy) Config {
	t.Helper()
	return Config{
		Replicas:        makeReplicas(t, total),
		Policy:          policy,
		MaxBatch:        8,
		PrefillReplicas: prefill,
		Transfer:        testTransfer(t),
	}
}

func TestDisaggServe(t *testing.T) {
	reqs := clusterTrace(t, 150, 25)
	for _, policy := range []Policy{RoundRobin, LeastLoaded} {
		stats, err := Serve(disaggConfig(t, 1, 4, policy), reqs)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if stats.Completed != len(reqs) {
			t.Fatalf("%v: completed %d of %d", policy, stats.Completed, len(reqs))
		}
		if !(stats.MeanTransferDelay > 0) {
			t.Errorf("%v: MeanTransferDelay = %v, want > 0", policy, stats.MeanTransferDelay)
		}
		// Every request paid a transfer, so the mean delay is at least
		// the interconnect latency floor.
		if stats.MeanTransferDelay < 3e-6 {
			t.Errorf("%v: MeanTransferDelay %v below the latency floor", policy, stats.MeanTransferDelay)
		}
		for _, r := range stats.Requests {
			if !(r.TransferS > 0) {
				t.Fatalf("%v: request %d has TransferS %v, want > 0", policy, r.ID, r.TransferS)
			}
			if r.Finished < r.FirstTok+r.TransferS {
				t.Fatalf("%v: request %d finished %v before first-token %v + transfer %v",
					policy, r.ID, r.Finished, r.FirstTok, r.TransferS)
			}
		}
		// The prefill pool hands off everything and completes nothing;
		// the decode pool completes everything.
		if got := stats.PerReplica[0]; got.Completed != 0 || got.Transferred != len(reqs) {
			t.Errorf("%v: prefill replica completed %d / transferred %d, want 0 / %d",
				policy, got.Completed, got.Transferred, len(reqs))
		}
		decoded := 0
		for _, ps := range stats.PerReplica[1:] {
			if ps.Transferred != 0 {
				t.Errorf("%v: decode replica transferred %d, want 0", policy, ps.Transferred)
			}
			decoded += ps.Completed
		}
		if decoded != len(reqs) {
			t.Errorf("%v: decode pool completed %d of %d", policy, decoded, len(reqs))
		}
	}
}

// TestDisaggMatchesStepped is the disaggregated determinism
// suite: coalesced and Stepped runs of a disagg fleet must produce
// byte-identical Stats — the same contract the aggregated fleet has,
// with kv-transfer events in the total order.
func TestDisaggMatchesStepped(t *testing.T) {
	reqs := longClusterTrace(t, 64, 3, 384)
	for _, policy := range []Policy{RoundRobin, LeastLoaded} {
		for _, split := range []int{1, 2} {
			base := disaggConfig(t, split, 4, policy)
			want, err := Serve(base, reqs)
			if err != nil {
				t.Fatal(err)
			}
			stepped := base
			stepped.Replicas = makeReplicas(t, 4)
			stepped.Stepped = true
			got, err := Serve(stepped, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("policy %v split %d: stepped differs from coalesced", policy, split)
			}
		}
	}
}

// TestDisaggStreamingMatchesLedger pins the Sink contract for
// disaggregated fleets: streaming aggregation must reproduce every
// non-percentile aggregate byte-for-byte, transfer delay included.
func TestDisaggStreamingMatchesLedger(t *testing.T) {
	reqs := clusterTrace(t, 150, 25)
	exact, err := Serve(disaggConfig(t, 1, 4, RoundRobin), reqs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := disaggConfig(t, 1, 4, RoundRobin)
	cfg.Streaming = true
	stream, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if exact.MeanLatency != stream.MeanLatency || exact.MeanTTFT != stream.MeanTTFT ||
		exact.MeanQueueDelay != stream.MeanQueueDelay || exact.MeanTransferDelay != stream.MeanTransferDelay ||
		exact.Throughput != stream.Throughput || exact.MakespanS != stream.MakespanS ||
		exact.Completed != stream.Completed {
		t.Errorf("streaming aggregates differ from ledger:\nexact  %+v\nstream %+v", exact.Stats, stream.Stats)
	}
}

func TestDisaggScratchReuse(t *testing.T) {
	reqs := clusterTrace(t, 100, 20)
	want, err := Serve(disaggConfig(t, 1, 3, LeastLoaded), reqs)
	if err != nil {
		t.Fatal(err)
	}
	sc := &des.Scratch{}
	for i := 0; i < 3; i++ {
		cfg := disaggConfig(t, 1, 3, LeastLoaded)
		cfg.Scratch = sc
		got, err := Serve(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("run %d with recycled scratch differs", i)
		}
	}
}

func TestDisaggValidation(t *testing.T) {
	reqs := clusterTrace(t, 5, 1)
	cfg := disaggConfig(t, 4, 4, RoundRobin)
	if _, err := Serve(cfg, reqs); err == nil {
		t.Error("prefill pool covering the whole fleet must fail")
	}
	cfg = disaggConfig(t, 1, 2, RoundRobin)
	cfg.Static = true
	if _, err := Serve(cfg, reqs); err == nil {
		t.Error("static + disagg must fail")
	}
	cfg = disaggConfig(t, 1, 2, RoundRobin)
	cfg.Transfer.GBPerS = 0
	if _, err := Serve(cfg, reqs); !errors.Is(err, des.ErrBadTransfer) {
		t.Errorf("zero-bandwidth transfer: got %v, want ErrBadTransfer", err)
	}
	cfg = disaggConfig(t, 1, 2, RoundRobin)
	cfg.Transfer.LatencyS = math.NaN()
	if _, err := Serve(cfg, reqs); !errors.Is(err, des.ErrBadTransfer) {
		t.Errorf("NaN-latency transfer: got %v, want ErrBadTransfer", err)
	}
}

// TestAggregatedGolden pins the aggregated topology byte-for-byte to
// the pre-disaggregation simulator: the fingerprints below were
// generated at the commit before pool roles existed. Any drift means
// the refactor changed aggregated behavior, which the determinism
// contract forbids.
func TestAggregatedGolden(t *testing.T) {
	reqs := clusterTrace(t, 150, 25)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"rr4", Config{Replicas: makeReplicas(t, 4), Policy: RoundRobin, MaxBatch: 8},
			"0x1.5d26d8c89afbdp+01|0x1.11ae7dfcf39aep+02|0x1.20ef6f9b18c2bp+13|0x1.479dd99a980dap+03|0x1.ed422789cc3e8p-01|0x1.d985c107dbd22p-01|150|0"},
		{"ll4", Config{Replicas: makeReplicas(t, 4), Policy: LeastLoaded, MaxBatch: 8},
			"0x1.5d0ac83972f1ap+01|0x1.106e74c7e6336p+02|0x1.24bc1af0d1c7cp+13|0x1.435d476c9c8a3p+03|0x1.eda0d5f6e10c1p-01|0x1.d92dd82c49d54p-01|150|0"},
		{"static2", Config{Replicas: makeReplicas(t, 2), Policy: RoundRobin, MaxBatch: 8, Static: true},
			"0x1.63677336abab9p+03|0x1.3030c36daef4p+04|0x1.c6a14e7ea0e0ep+11|0x1.a06d2bc9fd4acp+04|0x1.211bcbcfd1cb3p+03|0x1.14c10ff4e443p+03|150|0"},
	}
	for _, tc := range cases {
		stats, err := Serve(tc.cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := fmt.Sprintf("%x|%x|%x|%x|%x|%x|%d|%d",
			stats.MeanLatency, stats.P99Latency, stats.Throughput, stats.MakespanS,
			stats.MeanTTFT, stats.MeanQueueDelay, stats.Completed, stats.Preemptions)
		if got != tc.want {
			t.Errorf("%s drifted from pre-refactor output:\ngot  %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
