package cluster

import (
	"reflect"
	"testing"

	"llmbench/internal/dtype"
	"llmbench/internal/engine"
	"llmbench/internal/framework"
	"llmbench/internal/hw"
	"llmbench/internal/kvcache"
	"llmbench/internal/model"
	"llmbench/internal/workload"
)

func longClusterTrace(t *testing.T, n int, rate float64, outputMean int) []workload.Request {
	t.Helper()
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 31, Requests: n, RatePerSec: rate,
		InputMean: 256, OutputMean: outputMean, LengthJitter: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// TestClusterCoalescedMatchesStepped asserts the cluster DES produces
// byte-identical Stats (aggregates, per-request timestamps, and
// per-replica utilisation) whether it fast-forwards identical decode
// iterations or steps them one event at a time.
func TestClusterCoalescedMatchesStepped(t *testing.T) {
	for _, policy := range []Policy{RoundRobin, LeastLoaded} {
		reqs := longClusterTrace(t, 48, 1.5, 512)
		co, err := Serve(Config{Replicas: makeReplicas(t, 3), Policy: policy, MaxBatch: 8}, reqs)
		if err != nil {
			t.Fatalf("%v coalesced: %v", policy, err)
		}
		st, err := Serve(Config{Replicas: makeReplicas(t, 3), Policy: policy, MaxBatch: 8, Stepped: true}, reqs)
		if err != nil {
			t.Fatalf("%v stepped: %v", policy, err)
		}
		if !reflect.DeepEqual(co, st) {
			t.Errorf("%v: coalesced Stats differ from stepped reference\ncoalesced: %+v\nstepped:   %+v",
				policy, co.Stats, st.Stats)
		}
		if co.Completed != 48 {
			t.Errorf("%v: completed %d/48", policy, co.Completed)
		}
	}
}

// TestClusterUtilisationBounded guards the makespan definition (end of
// last completed work): busy time can never exceed it.
func TestClusterUtilisationBounded(t *testing.T) {
	stats, err := Serve(Config{Replicas: makeReplicas(t, 2), Policy: LeastLoaded, MaxBatch: 8},
		longClusterTrace(t, 30, 3, 256))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range stats.PerReplica {
		if r.Util < 0 || r.Util > 1 {
			t.Errorf("replica %d utilisation %v out of [0, 1]", i, r.Util)
		}
	}
}

func autoscaleFactory(t *testing.T) func() (Replica, error) {
	t.Helper()
	m := model.MustGet("Mistral-7B")
	return func() (Replica, error) {
		eng, err := engine.New(engine.Config{
			Model:     m,
			Device:    hw.MustGet("A100"),
			Framework: framework.MustGet("vLLM"),
		})
		if err != nil {
			return Replica{}, err
		}
		alloc, err := kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), 16*(1<<30))
		if err != nil {
			return Replica{}, err
		}
		return Replica{Engine: eng, Alloc: alloc}, nil
	}
}

// TestAutoscaleCoalescedMatchesStepped extends the equivalence to the
// autoscaler: scaling decisions fire at arrival events and read no
// state an open window changes, so the whole scaling trajectory —
// events, peak, and every request stat — must match the stepped path.
func TestAutoscaleCoalescedMatchesStepped(t *testing.T) {
	as := Autoscale{
		Factory:       autoscaleFactory(t),
		Min:           1,
		Max:           4,
		UpOutstanding: 6,
		DownIdleS:     5,
		CooldownS:     2,
	}
	reqs := longClusterTrace(t, 60, 3, 384)
	co, err := ServeAutoscale(Config{MaxBatch: 8}, as, reqs)
	if err != nil {
		t.Fatalf("coalesced: %v", err)
	}
	st, err := ServeAutoscale(Config{MaxBatch: 8, Stepped: true}, as, reqs)
	if err != nil {
		t.Fatalf("stepped: %v", err)
	}
	if !reflect.DeepEqual(co, st) {
		t.Errorf("autoscale coalesced differs from stepped\ncoalesced: events=%v peak=%d stats=%+v\nstepped:   events=%v peak=%d stats=%+v",
			co.Events, co.PeakReplicas, co.Stats.Stats, st.Events, st.PeakReplicas, st.Stats.Stats)
	}
	if co.Completed != 60 {
		t.Errorf("completed %d/60", co.Completed)
	}
}
