package cluster

import (
	"math"
	"slices"
	"testing"

	"llmbench/internal/sched"
	"llmbench/internal/workload"
)

// TestMD1Queueing checks one replica against queueing theory, an
// oracle from outside the simulator. With MaxBatch 1 and fixed 128:32
// lengths every request takes the same service time S, so under
// Poisson arrivals the replica is an M/D/1 queue, whose mean queueing
// delay is Pollaczek–Khinchine's λS²/(2(1−ρ)) with ρ = λS.
//
// One run's mean is a few percent off the closed form, and a fixed
// tolerance band would hide a bias of that size, so each load runs K
// independent seeds and the closed form must lie inside the 95%
// confidence interval of their mean.
//
// The same runs check Little's law, L = λW: the time-integrated number
// of requests waiting and in the system, swept from the ledger's event
// times, must equal the arrival rate times the mean queueing delay and
// the mean latency Summarize reports. The sweep also checks that the
// server's time-integrated occupancy is the replica's BusyS.
//
// The ledger also shows a known defect: a station goes idle when its
// last request's final iteration starts, not when it ends, so a
// request arriving during that iteration starts at once, overlapping
// it. checkMD1Run pins the overlap to exactly that case, so it cannot
// grow unnoticed; the fix changes simulated output (see ROADMAP.md,
// "Oracles").
func TestMD1Queueing(t *testing.T) {
	const (
		seeds    = 8
		requests = 40_000
		tCrit    = 2.365 // Student t, 7 degrees of freedom, two-sided 95%
	)
	// The service time, from a short run.
	probe := md1Run(t, 1, 50, 0.1)
	s := probe.Requests[0].Finished - probe.Requests[0].Started
	for _, rho := range []float64{0.3, 0.85} {
		lambda := rho / s
		pk := lambda * s * s / (2 * (1 - rho))
		var means []float64
		overlaps := 0
		for seed := uint64(1); seed <= seeds; seed++ {
			st := md1Run(t, seed, requests, lambda)
			overlaps += checkMD1Run(t, st, s, rho)
			means = append(means, st.MeanQueueDelay)
		}
		mean, sd := meanSD(means)
		half := tCrit * sd / math.Sqrt(seeds)
		t.Logf("ρ=%.2f: mean queue delay %.4f s ± %.4f (95%% CI over %d seeds), Pollaczek–Khinchine %.4f s; %d of %d requests started during a final iteration",
			rho, mean, half, seeds, pk, overlaps, seeds*requests)
		if math.Abs(mean-pk) > half {
			t.Errorf("ρ=%.2f: Pollaczek–Khinchine %.5f s lies outside the 95%% CI %.5f ± %.5f s",
				rho, pk, mean, half)
		}
	}
}

// md1Run serves a fixed-length Poisson trace on one replica with
// MaxBatch 1.
func md1Run(t *testing.T, seed uint64, n int, lambda float64) Stats {
	t.Helper()
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: seed, Requests: n, RatePerSec: lambda, InputMean: 128, OutputMean: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Serve(Config{Replicas: kvReplicas(t, 1, 8), MaxBatch: 1}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// checkMD1Run checks one run's ledger: deterministic service, a single
// server, and Little's law for the queue and for the whole system. It
// returns how many requests started during their predecessor's final
// iteration.
func checkMD1Run(t *testing.T, st Stats, s, rho float64) (overlaps int) {
	t.Helper()
	type event struct {
		at    float64
		queue int // change in requests waiting
		busy  int // change in requests in service
	}
	evs := make([]event, 0, 3*len(st.Requests))
	first := math.Inf(1)
	for _, r := range st.Requests {
		if d := r.Finished - r.Started; math.Abs(d-s) > 1e-9*s {
			t.Fatalf("ρ=%.2f: request %d served in %v s, want the deterministic %v s", rho, r.ID, d, s)
		}
		first = min(first, r.Arrival)
		evs = append(evs, event{r.Arrival, 1, 0}, event{r.Started, -1, 1}, event{r.Finished, 0, -1})
	}
	// One server: each request starts once its predecessor ends, except
	// for the known defect above, where it arrives during the
	// predecessor's final decode iteration and starts on arrival.
	byStart := slices.Clone(st.Requests)
	slices.SortFunc(byStart, func(a, b sched.RequestStats) int { return cmpFloat(a.Started, b.Started) })
	for i := 1; i < len(byStart); i++ {
		prev, r := byStart[i-1], byStart[i]
		step := (prev.Finished - prev.FirstTok) / float64(prev.Output-1)
		overlap := prev.Finished - r.Started
		if overlap <= 0 {
			continue
		}
		if r.Started != r.Arrival || overlap > 1.05*step {
			t.Fatalf("ρ=%.2f: request %d (arrived %v) started at %v, %v s before request %d ended",
				rho, r.ID, r.Arrival, r.Started, overlap, prev.ID)
		}
		overlaps++
	}
	slices.SortFunc(evs, func(a, b event) int { return cmpFloat(a.at, b.at) })
	var queue, busy int
	var areaQ, areaSys, areaBusy float64
	prev := first
	for _, e := range evs {
		dt := e.at - prev
		areaQ += float64(queue) * dt
		areaSys += float64(queue+busy) * dt
		areaBusy += float64(busy) * dt
		prev = e.at
		queue += e.queue
		busy += e.busy
	}
	horizon := prev - first
	lambda := float64(len(st.Requests)) / horizon
	for _, c := range []struct {
		name string
		l, w float64
	}{
		{"queue", areaQ / horizon, st.MeanQueueDelay},
		{"system", areaSys / horizon, st.MeanLatency},
	} {
		if lw := lambda * c.w; math.Abs(c.l-lw) > 1e-9*lw {
			t.Errorf("ρ=%.2f: Little's law in the %s: L = %v, λW = %v", rho, c.name, c.l, lw)
		}
	}
	if busyS := st.PerReplica[0].BusyS; math.Abs(areaBusy-busyS) > 1e-9*busyS {
		t.Errorf("ρ=%.2f: server busy %v s by the ledger, BusyS %v s", rho, areaBusy, busyS)
	}
	return overlaps
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// meanSD is the sample mean and (n−1) standard deviation.
func meanSD(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)-1))
}
