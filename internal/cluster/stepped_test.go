package cluster

import (
	"reflect"
	"testing"
)

// TestClusterMatchesStepped asserts the kernel's headline property at
// the cluster layer: the coalesced kernel produces byte-identical
// Stats to the Stepped reference, for both routers.
func TestClusterMatchesStepped(t *testing.T) {
	reqs := longClusterTrace(t, 64, 3, 384)
	for _, policy := range []Policy{RoundRobin, LeastLoaded} {
		coalesced, err := Serve(Config{Replicas: makeReplicas(t, 4), Policy: policy, MaxBatch: 8}, reqs)
		if err != nil {
			t.Fatalf("%v coalesced: %v", policy, err)
		}
		stepped, err := Serve(Config{
			Replicas: makeReplicas(t, 4), Policy: policy, MaxBatch: 8, Stepped: true,
		}, reqs)
		if err != nil {
			t.Fatalf("%v stepped: %v", policy, err)
		}
		if !reflect.DeepEqual(stepped, coalesced) {
			t.Errorf("%v: stepped Stats differ from coalesced", policy)
		}
	}
}

// TestAutoscaleMatchesStepped extends the property to dynamic
// capacity: the scaling trajectory (events, peak) and every request
// stat must be identical coalesced and stepped — including scale-downs
// that retire an empty replica while the remaining replicas still hold
// in-flight requests.
func TestAutoscaleMatchesStepped(t *testing.T) {
	as := Autoscale{Factory: autoscaleFactory(t), Max: 5, UpOutstanding: 6}
	reqs := burstyTrace(t)
	coalesced, err := Serve(autoscaled(t, Config{MaxBatch: 8}, as, 1), reqs)
	if err != nil {
		t.Fatalf("coalesced: %v", err)
	}
	stepped, err := Serve(autoscaled(t, Config{MaxBatch: 8, Stepped: true}, as, 1), reqs)
	if err != nil {
		t.Fatalf("stepped: %v", err)
	}
	if !reflect.DeepEqual(stepped, coalesced) {
		t.Error("stepped autoscaled Stats differ from coalesced")
	}

	// The trajectory must actually exercise down-scaling while work
	// is in flight: at some scale-down instant, requests were still
	// being served (the retired replica was empty; its peers were
	// not). Without this the equivalence above would not cover the
	// retire path.
	lastFinish := coalesced.MakespanS
	sawLiveDown := false
	for _, e := range coalesced.ScaleEvents {
		if !e.Up && e.TimeS < lastFinish {
			sawLiveDown = true
		}
	}
	if !sawLiveDown {
		t.Error("trace must force a scale-down while requests are in flight")
	}
}
