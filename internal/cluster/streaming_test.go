package cluster

import (
	"math"
	"reflect"
	"testing"
)

// zeroPercentiles blanks the sketch-estimated fields so the remainder
// of a Stats value can be compared byte for byte against the exact
// path.
func zeroPercentiles(s *Stats) {
	s.P50Latency, s.P95Latency, s.P99Latency = 0, 0, 0
	s.P50QueueDelay, s.P95QueueDelay, s.P99QueueDelay = 0, 0, 0
}

// TestClusterStreamingMatchesExact pins the streaming accuracy
// contract at the cluster layer: with Streaming set, every
// non-percentile aggregate and per-replica share is byte-identical to
// the exact ledgered run (the kernel's Sink delivers completions in
// the same global order Summarize iterates), the per-request ledger is
// dropped, and the sketch percentiles stay close to the exact ones —
// for continuous and static batching alike.
func TestClusterStreamingMatchesExact(t *testing.T) {
	reqs := longClusterTrace(t, 400, 8, 96)
	for _, static := range []bool{false, true} {
		exact, err := Serve(Config{
			Replicas: makeReplicas(t, 3), Policy: RoundRobin, MaxBatch: 8, Static: static,
		}, reqs)
		if err != nil {
			t.Fatalf("static=%v exact: %v", static, err)
		}
		stream, err := Serve(Config{
			Replicas: makeReplicas(t, 3), Policy: RoundRobin, MaxBatch: 8, Static: static,
			Streaming: true,
		}, reqs)
		if err != nil {
			t.Fatalf("static=%v streaming: %v", static, err)
		}
		if stream.Requests != nil {
			t.Errorf("static=%v: streaming run must not ledger requests", static)
		}
		wantPcts := [6]float64{
			exact.P50Latency, exact.P95Latency, exact.P99Latency,
			exact.P50QueueDelay, exact.P95QueueDelay, exact.P99QueueDelay,
		}
		gotPcts := [6]float64{
			stream.P50Latency, stream.P95Latency, stream.P99Latency,
			stream.P50QueueDelay, stream.P95QueueDelay, stream.P99QueueDelay,
		}
		for i, name := range [6]string{"P50Lat", "P95Lat", "P99Lat", "P50QD", "P95QD", "P99QD"} {
			if rel := math.Abs(gotPcts[i]-wantPcts[i]) / wantPcts[i]; rel > 0.05 {
				t.Errorf("static=%v %s: sketch %v vs exact %v (relative error %.2f%%)",
					static, name, gotPcts[i], wantPcts[i], 100*rel)
			}
		}
		exact.Requests = nil
		zeroPercentiles(&exact)
		zeroPercentiles(&stream)
		if !reflect.DeepEqual(stream, exact) {
			t.Errorf("static=%v: streaming non-percentile aggregates differ from exact:\n got %+v\nwant %+v",
				static, stream, exact)
		}
	}
}

// TestClusterStreamingDeterministicAcrossModes extends the kernel's
// headline property to streaming aggregation: the Sink observes the
// identical completion sequence in every mode, so streaming Stats —
// sketch percentiles included — are byte-identical on the coalesced
// and stepped kernels, for fixed fleets and autoscaling.
func TestClusterStreamingDeterministicAcrossModes(t *testing.T) {
	reqs := longClusterTrace(t, 128, 6, 192)
	for _, static := range []bool{false, true} {
		coalesced, err := Serve(Config{
			Replicas: makeReplicas(t, 4), Policy: LeastLoaded, MaxBatch: 8, Static: static,
			Streaming: true,
		}, reqs)
		if err != nil {
			t.Fatalf("static=%v coalesced: %v", static, err)
		}
		got, err := Serve(Config{
			Replicas: makeReplicas(t, 4), Policy: LeastLoaded, MaxBatch: 8, Static: static,
			Streaming: true, Stepped: true,
		}, reqs)
		if err != nil {
			t.Fatalf("static=%v stepped: %v", static, err)
		}
		if !reflect.DeepEqual(got, coalesced) {
			t.Errorf("static=%v: stepped streaming Stats differ from coalesced", static)
		}
	}

	as := Autoscale{Factory: autoscaleFactory(t), Max: 4, UpOutstanding: 6}
	bursty := burstyTrace(t)
	coalesced, err := Serve(autoscaled(t, Config{MaxBatch: 8, Streaming: true}, as, 1), bursty)
	if err != nil {
		t.Fatalf("autoscale coalesced: %v", err)
	}
	if coalesced.Requests != nil {
		t.Error("streaming autoscale run must not ledger requests")
	}
	stepped, err := Serve(autoscaled(t, Config{MaxBatch: 8, Streaming: true, Stepped: true}, as, 1), bursty)
	if err != nil {
		t.Fatalf("autoscale stepped: %v", err)
	}
	if !reflect.DeepEqual(stepped, coalesced) {
		t.Error("autoscale streaming Stats differ between coalesced and stepped")
	}
}
