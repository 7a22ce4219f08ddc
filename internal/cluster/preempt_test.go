package cluster

import (
	"errors"
	"reflect"
	"testing"

	"llmbench/internal/kvcache"
	"llmbench/internal/workload"
)

// TestFleetPreemptsUnderKVPressure: an aggregated fleet whose KV pools
// run dry mid-decode preempts and recomputes instead of failing — every
// request completes, the evictions are counted, the per-request counts
// sum to the fleet total, and the run is byte-identical coalesced and
// Stepped.
func TestFleetPreemptsUnderKVPressure(t *testing.T) {
	reqs := longClusterTrace(t, 24, 3, 640)
	run := func(stepped bool) Stats {
		t.Helper()
		stats, err := Serve(Config{
			Replicas: kvReplicas(t, 2, 0.3), Policy: LeastLoaded, MaxBatch: 8, Stepped: stepped,
		}, reqs)
		if err != nil {
			t.Fatalf("stepped=%v: %v", stepped, err)
		}
		return stats
	}
	co, st := run(false), run(true)
	if !reflect.DeepEqual(co, st) {
		t.Errorf("coalesced Stats differ from Stepped\ncoalesced: %+v\nstepped:   %+v", co.Stats, st.Stats)
	}
	if co.Completed != len(reqs) {
		t.Errorf("completed %d/%d", co.Completed, len(reqs))
	}
	if co.Preemptions == 0 {
		t.Fatal("0.3 GiB pools must force preemptions")
	}
	preempted := 0
	for _, r := range co.Requests {
		preempted += r.Preempted
	}
	if preempted != co.Preemptions {
		t.Errorf("per-request Preempted sum %d != Stats.Preemptions %d", preempted, co.Preemptions)
	}
}

// TestDecodePoolOOMFails: a decode-pool replica cannot recompute a
// prompt that was prefilled elsewhere, so a decode pool whose KV runs
// dry fails the run with kvcache.ErrOutOfMemory instead of preempting.
func TestDecodePoolOOMFails(t *testing.T) {
	reqs := []workload.Request{{ID: 0, Input: 256, Output: 512, Arrival: 0}}
	for _, stepped := range []bool{false, true} {
		replicas := append(kvReplicas(t, 1, 16), kvReplicas(t, 1, 0.05)...) // ~400 decode tokens
		_, err := Serve(Config{
			Replicas: replicas, MaxBatch: 8, Stepped: stepped,
			PrefillReplicas: 1, Transfer: testTransfer(t),
		}, reqs)
		if !errors.Is(err, kvcache.ErrOutOfMemory) {
			t.Errorf("stepped=%v: got %v, want kvcache.ErrOutOfMemory", stepped, err)
		}
	}
}
