package workload

import (
	"math"
	"sort"
	"testing"
)

func chatCfg() ChatTraceConfig {
	return ChatTraceConfig{
		Seed: 4, Requests: 4000, RatePerSec: 10, BurstFactor: 4,
		InputMedian: 512, OutputMedian: 128, Sigma: 0.8,
	}
}

func TestChatTraceReproducible(t *testing.T) {
	a, err := ChatTrace(chatCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ChatTrace(chatCfg())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("chat trace must be deterministic")
		}
	}
}

func TestChatTraceLengthDistribution(t *testing.T) {
	reqs, err := ChatTrace(chatCfg())
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]int, len(reqs))
	for i, r := range reqs {
		ins[i] = r.Input
		if r.Input < 16 || r.Input > 8192 {
			t.Fatalf("input %d outside clamp", r.Input)
		}
	}
	sort.Ints(ins)
	median := float64(ins[len(ins)/2])
	if math.Abs(median-512)/512 > 0.15 {
		t.Errorf("input median %v, want ~512", median)
	}
	// Heavy tail: p99 well above the median (lognormal σ=0.8 → ~6.4x).
	p99 := float64(ins[int(float64(len(ins))*0.99)])
	if p99 < 3*median {
		t.Errorf("p99 %v not heavy-tailed vs median %v", p99, median)
	}
}

func TestChatTraceBurstiness(t *testing.T) {
	// The index of dispersion of arrival counts per second must exceed
	// 1 (Poisson) when BurstFactor > 1.
	disp := func(burst float64) float64 {
		cfg := chatCfg()
		cfg.BurstFactor = burst
		reqs, err := ChatTrace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		end := reqs[len(reqs)-1].Arrival
		bins := make([]float64, int(end)+1)
		for _, r := range reqs {
			bins[int(r.Arrival)]++
		}
		var mean, varsum float64
		for _, b := range bins {
			mean += b
		}
		mean /= float64(len(bins))
		for _, b := range bins {
			varsum += (b - mean) * (b - mean)
		}
		return varsum / float64(len(bins)) / mean
	}
	bursty := disp(4)
	smooth := disp(1)
	if bursty < 2*smooth {
		t.Errorf("bursty dispersion %v must clearly exceed Poisson %v", bursty, smooth)
	}
	if smooth > 2 {
		t.Errorf("plain Poisson dispersion %v should be near 1", smooth)
	}
}

func TestChatTraceErrors(t *testing.T) {
	bad := chatCfg()
	bad.Requests = 0
	if _, err := ChatTrace(bad); err == nil {
		t.Error("zero requests must fail")
	}
	bad = chatCfg()
	bad.InputMedian = 2
	if _, err := ChatTrace(bad); err == nil {
		t.Error("tiny median must fail")
	}
	bad = chatCfg()
	bad.Sigma = 5
	if _, err := ChatTrace(bad); err == nil {
		t.Error("huge sigma must fail")
	}
	bad = chatCfg()
	bad.BurstFactor = 0.5
	if _, err := ChatTrace(bad); err == nil {
		t.Error("burst factor < 1 must fail")
	}
	bad = chatCfg()
	bad.Sigma = math.NaN()
	if _, err := ChatTrace(bad); err == nil {
		t.Error("NaN sigma must fail")
	}
	for _, l := range []float64{math.NaN(), math.Inf(1)} {
		bad = chatCfg()
		bad.BurstLenS = l
		if _, err := ChatTrace(bad); err == nil {
			t.Errorf("burst length %v must fail", l)
		}
	}
}

func TestChatTraceArrivalsIncrease(t *testing.T) {
	reqs, err := ChatTrace(chatCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival <= reqs[i-1].Arrival {
			t.Fatal("arrivals must strictly increase")
		}
	}
}
