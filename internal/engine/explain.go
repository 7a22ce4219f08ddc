package engine

// Explain decomposes a benchmark point into where its time goes —
// the quantities the analysis sections of the paper reason about when
// attributing wins to GQA, KV traffic, batching, or communication. It
// reads the same phase terms and memory plan as Run, so its totals
// equal Run's bit for bit.

import (
	"llmbench/internal/roofline"
	"llmbench/internal/workload"
)

// PhaseBreakdown attributes one phase's wall time to its mechanisms.
// Wall times of the compute and memory components overlap under the
// roofline (only the longer one binds); the byte-level splits within
// the memory wall are additive.
type PhaseBreakdown struct {
	Seconds float64 // total phase wall time

	ComputeWall float64 // FLOPs / effective FLOP/s
	MemoryWall  float64 // total bytes / effective B/s
	MemoryBound bool    // which wall bound the phase

	// Memory-wall split. Each split is stalled on its own, while
	// MemoryWall is Run's stalled sum, so the splits sum to MemoryWall
	// within rounding.
	WeightStreamS float64
	KVReadS       float64
	KVWriteS      float64

	// Additive serial terms.
	CommS     float64
	OverheadS float64
	SetupS    float64 // per-sequence prefill setup (SambaFlow)
	LogitsS   float64 // unfused-unembedding excess
}

// Breakdown explains a full run.
type Breakdown struct {
	Spec workload.Spec

	// Waves and ConcurrentBatch expose the memory plan: when the whole
	// batch's KV does not fit, the framework runs ceil(batch/conc)
	// sequential waves of conc sequences.
	Waves           int
	ConcurrentBatch int
	PeakMemGiB      float64

	Prefill PhaseBreakdown
	// Decode aggregates all output steps of one wave.
	Decode PhaseBreakdown
}

// Explain evaluates a benchmark point and attributes its time. It
// prices the same memory plan, waves and phase terms as Run, so
// Prefill.Seconds equals Run's TTFT and Waves·(Prefill.Seconds +
// Decode.Seconds) its E2E bit for bit, and it fails with Run's errors.
// Its decode steps are priced directly, not through the step memo.
func (e *Engine) Explain(spec workload.Spec) (*Breakdown, error) {
	peakMem, waves, batch, err := e.memoryPlan(spec)
	if err != nil {
		return nil, err
	}
	out := &Breakdown{
		Spec:            spec,
		Waves:           waves,
		ConcurrentBatch: batch,
		PeakMemGiB:      peakMem / (1 << 30),
	}
	out.Prefill = e.prefillTerms(batch, spec.Input).breakdown()
	d := &out.Decode
	for ctx := spec.Input + 1; ctx < spec.Input+spec.Output; ctx++ {
		step := e.stepTerms(batch, ctx).breakdown()
		d.Seconds += step.Seconds
		d.ComputeWall += step.ComputeWall
		d.MemoryWall += step.MemoryWall
		d.WeightStreamS += step.WeightStreamS
		d.KVReadS += step.KVReadS
		d.KVWriteS += step.KVWriteS
		d.CommS += step.CommS
		d.OverheadS += step.OverheadS
		d.LogitsS += step.LogitsS
	}
	d.MemoryBound = d.MemoryWall > d.ComputeWall
	return out, nil
}

// breakdown prices a phase and reports its terms.
func (p phaseTerms) breakdown() PhaseBreakdown {
	r := p.cost()
	return PhaseBreakdown{
		Seconds:       r.Seconds,
		ComputeWall:   r.ComputeTime,
		MemoryWall:    r.MemoryTime,
		MemoryBound:   r.Bound == roofline.MemoryBound,
		WeightStreamS: p.weight * p.stall,
		KVReadS:       p.kvRead * p.stall,
		KVWriteS:      p.kvWrite * p.stall,
		CommS:         p.comm,
		OverheadS:     p.overhead,
		SetupS:        p.setup,
		LogitsS:       p.logits,
	}
}
