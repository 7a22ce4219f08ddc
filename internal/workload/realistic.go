package workload

// Realistic serving traces beyond the fixed grids of §III-2: chat
// prompts and replies follow heavy-tailed (lognormal) length
// distributions, and arrivals come in bursts rather than a smooth
// Poisson stream. Both stress continuous batching and the paged KV
// cache harder than uniform traces do.

import (
	"fmt"
	"math"

	"llmbench/internal/trace"
)

// ChatTraceConfig parameterises a heavy-tailed chat workload.
type ChatTraceConfig struct {
	Seed     uint64
	Requests int

	// RatePerSec is the long-run mean arrival rate. BurstFactor ≥ 1
	// modulates it: bursts run at rate·BurstFactor, calm periods at
	// rate/BurstFactor, and calm dwell times are BurstFactor× longer
	// than burst dwells so the long-run mean stays RatePerSec (a
	// rate-preserving two-state MMPP). 1 = plain Poisson.
	RatePerSec  float64
	BurstFactor float64
	// BurstLenS is the mean dwell time of a burst (default 5 s); calm
	// periods dwell BurstFactor times longer.
	BurstLenS float64

	// Length distributions: lognormal with the given median and sigma
	// (sigma ~0.8 matches public chat datasets' heavy tails). Lengths
	// clamp to [16, MaxLen].
	InputMedian  int
	OutputMedian int
	Sigma        float64
	MaxLen       int

	// PrefixTokens prepends a fleet-wide shared system prompt to every
	// request: Input becomes PrefixTokens plus the lognormal
	// per-request draw (InputMedian then models only the private
	// suffix). The arrival process and random draws are untouched, so
	// a zero value generates the exact trace this knob predates —
	// byte-identical streams. Negative values are rejected.
	PrefixTokens int
}

// ChatTrace generates a reproducible heavy-tailed, bursty trace.
func ChatTrace(cfg ChatTraceConfig) ([]Request, error) {
	if cfg.Requests < 1 || cfg.RatePerSec <= 0 {
		return nil, fmt.Errorf("workload: bad chat trace config %+v", cfg)
	}
	if cfg.InputMedian < 16 || cfg.OutputMedian < 16 {
		return nil, fmt.Errorf("workload: medians must be ≥ 16")
	}
	if !(cfg.Sigma >= 0 && cfg.Sigma <= 2) {
		return nil, fmt.Errorf("workload: sigma %v out of [0, 2]", cfg.Sigma)
	}
	if math.IsNaN(cfg.BurstLenS) || math.IsInf(cfg.BurstLenS, 0) {
		return nil, fmt.Errorf("workload: burst length %v must be finite", cfg.BurstLenS)
	}
	if cfg.BurstFactor < 1 {
		return nil, fmt.Errorf("workload: burst factor %v must be ≥ 1", cfg.BurstFactor)
	}
	if cfg.PrefixTokens < 0 {
		return nil, fmt.Errorf("workload: negative prefix length %d", cfg.PrefixTokens)
	}
	maxLen := cfg.MaxLen
	if maxLen == 0 {
		maxLen = 8192
	}
	burstLen := cfg.BurstLenS
	if burstLen <= 0 {
		burstLen = 5
	}
	rng := trace.NewRNG(cfg.Seed)

	// Box-Muller standard normal.
	normal := func() float64 {
		u1 := rng.Float64()
		for u1 == 0 {
			u1 = rng.Float64()
		}
		u2 := rng.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
	logn := func(median int) int {
		v := float64(median) * math.Exp(cfg.Sigma*normal())
		if v < 16 {
			v = 16
		}
		if v > float64(maxLen) {
			v = float64(maxLen)
		}
		return int(v)
	}

	dwell := func(inBurst bool) float64 {
		if inBurst {
			return rng.Exp(burstLen)
		}
		return rng.Exp(burstLen * cfg.BurstFactor)
	}
	reqs := make([]Request, cfg.Requests)
	now := 0.0
	inBurst := false
	stateLeft := dwell(false)
	for i := range reqs {
		rate := cfg.RatePerSec / cfg.BurstFactor
		if inBurst {
			rate = cfg.RatePerSec * cfg.BurstFactor
		}
		gap := rng.Exp(1 / rate)
		now += gap
		stateLeft -= gap
		if stateLeft <= 0 {
			inBurst = !inBurst
			stateLeft = dwell(inBurst)
		}
		reqs[i] = Request{ID: i, Arrival: now, Input: cfg.PrefixTokens + logn(cfg.InputMedian), Output: logn(cfg.OutputMedian)}
	}
	return reqs, nil
}
