// Package parallel models the multi-device execution strategies the
// paper compares in §IV-C / Fig. 5: tensor parallelism (TP), pipeline
// parallelism (PP), expert parallelism (EP), and hybrid combinations.
//
// A Plan divides a model across TP·PP·EP devices and prices the
// communication each scheme incurs per iteration: TP pays two
// all-reduces per layer, PP pays point-to-point activation transfers
// plus a pipeline-fill bubble, EP pays a token all-to-all per MoE
// layer plus expert load imbalance.
package parallel

import (
	"fmt"
	"math"

	"llmbench/internal/model"
)

// Link describes the device interconnect (NVLink, Infinity Fabric,
// RoCE, inter-RDU network).
type Link struct {
	BW      float64 // bytes/s per direction
	Latency float64 // seconds per message
	Eff     float64 // achieved fraction of BW (framework collective quality)
}

// Plan is a parallel execution plan. Degrees multiply: the plan uses
// TP·PP·EP devices. All degrees must be ≥ 1.
type Plan struct {
	TP int // tensor-parallel degree
	PP int // pipeline stages
	EP int // expert-parallel degree
}

// Single is the trivial one-device plan.
var Single = Plan{TP: 1, PP: 1, EP: 1}

// Devices returns the number of devices the plan occupies.
func (p Plan) Devices() int { return p.TP * p.PP * p.EP }

// String renders e.g. "TP=2,PP=2".
func (p Plan) String() string {
	s := ""
	add := func(k string, v int) {
		if v > 1 {
			if s != "" {
				s += ","
			}
			s += fmt.Sprintf("%s=%d", k, v)
		}
	}
	add("TP", p.TP)
	add("PP", p.PP)
	add("EP", p.EP)
	if s == "" {
		return "single"
	}
	return s
}

// Validate checks the plan against a model.
func (p Plan) Validate(m *model.Config) error {
	switch {
	case p.TP < 1 || p.PP < 1 || p.EP < 1:
		return fmt.Errorf("parallel: degrees must be ≥1, got %+v", p)
	case p.EP > 1 && m.FFN != model.MoE:
		return fmt.Errorf("parallel: EP=%d requires an MoE model, %s is dense", p.EP, m.Name)
	case p.EP > m.Experts:
		return fmt.Errorf("parallel: EP=%d exceeds %s's %d experts", p.EP, m.Name, m.Experts)
	case p.TP > m.KVHeads && m.KVHeads > 0 && p.TP > 1 && m.Heads%p.TP != 0:
		return fmt.Errorf("parallel: TP=%d does not divide %s's %d heads", p.TP, m.Name, m.Heads)
	case p.PP > m.Layers:
		return fmt.Errorf("parallel: PP=%d exceeds %s's %d layers", p.PP, m.Name, m.Layers)
	}
	return nil
}

// WeightShare returns the fraction of the model's weights resident on
// one device. TP and PP shard everything; EP shards only experts, so
// attention weights are replicated across the EP group — EP plans hold
// more than 1/N of the model.
func (p Plan) WeightShare(m *model.Config) float64 {
	attn := float64(m.Layers) * m.AttnParamsPerLayer()
	ffn := float64(m.Layers) * m.FFNParamsPerLayer()
	embed := m.EmbedParams()
	total := attn + ffn + embed
	perDev := attn/float64(p.TP*p.PP) + ffn/float64(p.TP*p.PP*p.EP) + embed/float64(p.TP*p.PP)
	return perDev / total
}

// allReduce prices a ring all-reduce of vol bytes across n devices.
func allReduce(vol float64, n int, l Link) float64 {
	if n <= 1 {
		return 0
	}
	steps := float64(2 * (n - 1))
	return steps*(vol/float64(n))/(l.BW*l.Eff) + steps*l.Latency
}

// p2p prices a point-to-point transfer.
func p2p(vol float64, l Link) float64 {
	return vol/(l.BW*l.Eff) + l.Latency
}

// allToAll prices a token all-to-all across n devices.
func allToAll(vol float64, n int, l Link) float64 {
	if n <= 1 {
		return 0
	}
	return vol*float64(n-1)/float64(n)/(l.BW*l.Eff) + float64(n-1)*l.Latency
}

// StepComm prices the communication of one iteration processing
// `tokens` activations (batch for decode, batch×seqLen for prefill) of
// width hidden at elemBytes.
func (p Plan) StepComm(m *model.Config, tokens int, elemBytes float64, l Link) float64 {
	act := float64(tokens) * float64(m.Hidden) * elemBytes
	var t float64
	if p.TP > 1 {
		// Two all-reduces per layer (after attention and after MLP).
		t += 2 * float64(m.Layers) * allReduce(act, p.TP, l)
	}
	if p.PP > 1 {
		// One activation hand-off per stage boundary per microbatch.
		micro := p.microbatches(tokens)
		per := act / float64(micro)
		t += float64(p.PP-1+micro-1) * p2p(per, l)
	}
	if p.EP > 1 {
		// Dispatch and combine all-to-alls per MoE layer.
		t += 2 * float64(m.Layers) * allToAll(act, p.EP, l)
	}
	return t
}

// microbatches is how many microbatches PP splits an iteration into.
func (p Plan) microbatches(tokens int) int {
	if p.PP <= 1 {
		return 1
	}
	m := tokens
	if m > p.PP {
		m = p.PP
	}
	if m < 1 {
		m = 1
	}
	return m
}

// PipelineInflation is the pipeline-fill bubble factor ≥ 1 applied to
// an iteration's execution walls: with m microbatches over PP stages,
// time = ideal × (m+PP−1)/m.
func (p Plan) PipelineInflation(tokens int) float64 {
	if p.PP <= 1 {
		return 1
	}
	m := float64(p.microbatches(tokens))
	return (m + float64(p.PP) - 1) / m
}

// EPImbalance is the expected slowdown of the FFN from uneven expert
// load under uniform top-k routing. With e experts per device the
// max-loaded device exceeds the mean by roughly 1/√e per expert group;
// calibrated to Fig. 5b where EP trails TP slightly.
func (p Plan) EPImbalance(m *model.Config) float64 {
	if p.EP <= 1 || m.FFN != model.MoE {
		return 1
	}
	perDev := float64(m.Experts) / float64(p.EP)
	return 1 + 0.22/math.Sqrt(perDev)
}
