package cluster

// Property tests for static batching as a cluster station policy: the
// router and autoscaler drive static replicas exactly like continuous
// ones, and the kernel's determinism contract (coalesced == Stepped,
// byte for byte) holds for them too.

import (
	"reflect"
	"testing"

	"llmbench/internal/workload"
)

// TestClusterStaticMatchesStepped: multi-replica static
// batching — the grid hole this policy port closes — produces
// byte-identical Stats on the coalesced and Stepped kernels, for both
// routers, with every request completed and zero preemptions.
func TestClusterStaticMatchesStepped(t *testing.T) {
	reqs := clusterTrace(t, 96, 6)
	for _, policy := range []Policy{RoundRobin, LeastLoaded} {
		coalesced, err := Serve(Config{Replicas: makeReplicas(t, 4), Policy: policy, MaxBatch: 8, Static: true}, reqs)
		if err != nil {
			t.Fatalf("%v coalesced: %v", policy, err)
		}
		if coalesced.Completed != len(reqs) {
			t.Fatalf("%v: completed %d/%d", policy, coalesced.Completed, len(reqs))
		}
		if coalesced.Preemptions != 0 {
			t.Errorf("%v: static cluster preempted %d times", policy, coalesced.Preemptions)
		}
		if len(coalesced.PerReplica) != 4 {
			t.Errorf("%v: %d per-replica entries, want 4", policy, len(coalesced.PerReplica))
		}
		stepped, err := Serve(Config{
			Replicas: makeReplicas(t, 4), Policy: policy, MaxBatch: 8, Static: true, Stepped: true,
		}, reqs)
		if err != nil {
			t.Fatalf("%v stepped: %v", policy, err)
		}
		if !reflect.DeepEqual(stepped, coalesced) {
			t.Errorf("%v: stepped static Stats differ from coalesced", policy)
		}
	}
}

// tiedTrace interleaves bursts of equal-timestamp arrivals — the
// tie-breaking edge the determinism contract pins (arrivals at one
// instant keep trace order; a station event at t runs after every
// arrival at t, so a batch collected at t admits all of them).
func tiedTrace(n int) []workload.Request {
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.Request{
			ID:      i,
			Arrival: float64(i/4) * 0.8, // groups of 4 share one instant
			Input:   128 + 64*(i%3),
			Output:  48 + 16*(i%5),
		}
	}
	return reqs
}

// TestClusterStaticArrivalTies: equal-timestamp arrivals route and
// batch deterministically — coalesced and Stepped static clusters
// agree byte for byte on a trace made of simultaneous arrival groups.
func TestClusterStaticArrivalTies(t *testing.T) {
	reqs := tiedTrace(64)
	for _, policy := range []Policy{RoundRobin, LeastLoaded} {
		coalesced, err := Serve(Config{Replicas: makeReplicas(t, 3), Policy: policy, MaxBatch: 4, Static: true}, reqs)
		if err != nil {
			t.Fatalf("%v coalesced: %v", policy, err)
		}
		if coalesced.Completed != len(reqs) {
			t.Fatalf("%v: completed %d/%d", policy, coalesced.Completed, len(reqs))
		}
		stepped, err := Serve(Config{
			Replicas: makeReplicas(t, 3), Policy: policy, MaxBatch: 4, Static: true, Stepped: true,
		}, reqs)
		if err != nil {
			t.Fatalf("%v stepped: %v", policy, err)
		}
		if !reflect.DeepEqual(stepped, coalesced) {
			t.Errorf("%v: stepped differs from coalesced on tied arrivals", policy)
		}
	}
}

// TestAutoscaleStaticMatchesStepped: the autoscaler drives
// static replicas like continuous ones — scale-ups under queue
// pressure, retirement of drained replicas, and a byte-identical
// trajectory coalesced and Stepped. The run must actually scale (a
// static replica holds its queue through a whole batch run, so
// pressure builds fast).
func TestAutoscaleStaticMatchesStepped(t *testing.T) {
	as := Autoscale{Factory: factory(t), Max: 4, UpOutstanding: 6}
	reqs := burstyTrace(t)
	coalesced, err := Serve(autoscaled(t, Config{MaxBatch: 8, Static: true}, as, 1), reqs)
	if err != nil {
		t.Fatalf("coalesced: %v", err)
	}
	if coalesced.Completed != len(reqs) {
		t.Fatalf("completed %d/%d", coalesced.Completed, len(reqs))
	}
	if coalesced.PeakReplicas < 2 {
		t.Errorf("peak replicas %d: the bursty trace must force a scale-up", coalesced.PeakReplicas)
	}
	if coalesced.Preemptions != 0 {
		t.Errorf("static autoscale preempted %d times", coalesced.Preemptions)
	}
	stepped, err := Serve(autoscaled(t, Config{MaxBatch: 8, Static: true, Stepped: true}, as, 1), reqs)
	if err != nil {
		t.Fatalf("stepped: %v", err)
	}
	if !reflect.DeepEqual(stepped, coalesced) {
		t.Error("stepped static autoscaled Stats differ from coalesced")
	}
}
