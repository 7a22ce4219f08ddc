// Package perplexity reproduces the quality axis of the paper's
// perplexity-vs-throughput scatters (Fig. 10 and Fig. 29, evaluated on
// LongBench in the paper).
//
// Substitution: the paper evaluates real model weights on a real
// dataset; neither is available here, and a model's language quality
// is not derivable from its architecture alone (it depends on training
// data). We therefore build a *real*
// evaluation pipeline — a synthetic LongBench-like corpus, an
// interpolated n-gram language model, a held-out cross-entropy
// measurement — and map each LLM to an n-gram capacity calibrated so
// the resulting perplexities land where the paper reports them
// (LLaMA-2-7B best at ~3.0, Mistral-7B +0.09, OPT/Bloom worst near 5).
// The pipeline exercises the same code path a real evaluation would:
// tokenize → score → exp(mean NLL).
package perplexity

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"llmbench/internal/trace"
)

// Corpus is a tokenized text corpus split into train and test.
type Corpus struct {
	Vocab int
	Train []int
	Test  []int
}

// GenerateCorpus synthesizes a corpus from a hidden Zipfian trigram
// source, deterministic in the seed. The source's entropy sets the
// floor perplexity a perfect trigram model can reach.
func GenerateCorpus(seed uint64, vocab, trainLen, testLen int) (*Corpus, error) {
	if vocab < 8 || trainLen < 1000 || testLen < 100 {
		return nil, errors.New("perplexity: corpus too small")
	}
	rng := trace.NewRNG(seed)

	// Each (a, b) context maps deterministically (via hashing) to a
	// sharp Zipf(s=2) distribution over a small candidate set — a
	// compact stand-in for natural-language predictability whose
	// conditional entropy puts a perfect trigram model near the
	// paper's best perplexities (~3).
	const candidates = 8
	var weights [candidates]float64
	total := 0.0
	for i := 0; i < candidates; i++ {
		weights[i] = 1 / float64((i+1)*(i+1))
		total += weights[i]
	}
	next := func(a, b int) int {
		h := uint64(a)*1000003 + uint64(b)*10007
		u := rng.Float64() * total
		pick := 0
		for i := 0; i < candidates; i++ {
			u -= weights[i]
			if u <= 0 {
				pick = i
				break
			}
		}
		// Map (context, rank) to a token id.
		return int((h*31 + uint64(pick)*2654435761) % uint64(vocab))
	}

	gen := func(n int) []int {
		out := make([]int, n)
		out[0] = rng.Intn(vocab)
		out[1] = rng.Intn(vocab)
		for i := 2; i < n; i++ {
			out[i] = next(out[i-1], out[i-2])
		}
		return out
	}
	return &Corpus{Vocab: vocab, Train: gen(trainLen), Test: gen(testLen)}, nil
}

// Model is an interpolated n-gram language model. Capacity ∈ (0, 1]
// controls how much of the higher-order statistics the model absorbs —
// the stand-in for parameter count and training quality.
type Model struct {
	Capacity float64
	vocab    int
	uni      map[int]float64
	bi       map[int]map[int]float64    // prev1 -> next -> count
	tri      map[[2]int]map[int]float64 // (prev2, prev1) -> next -> count
	uniTotal float64
}

// Train fits the n-gram tables on the corpus.
func Train(c *Corpus, capacity float64) (*Model, error) {
	if c == nil || len(c.Train) < 3 {
		return nil, errors.New("perplexity: empty corpus")
	}
	if capacity <= 0 || capacity > 1 {
		return nil, fmt.Errorf("perplexity: capacity %v out of (0,1]", capacity)
	}
	m := &Model{
		Capacity: capacity,
		vocab:    c.Vocab,
		uni:      make(map[int]float64),
		bi:       make(map[int]map[int]float64),
		tri:      make(map[[2]int]map[int]float64),
	}
	t := c.Train
	for i, tok := range t {
		m.uni[tok]++
		m.uniTotal++
		if i >= 1 {
			if m.bi[t[i-1]] == nil {
				m.bi[t[i-1]] = make(map[int]float64)
			}
			m.bi[t[i-1]][tok]++
		}
		if i >= 2 {
			key := [2]int{t[i-2], t[i-1]}
			if m.tri[key] == nil {
				m.tri[key] = make(map[int]float64)
			}
			m.tri[key][tok]++
		}
	}
	return m, nil
}

func dist(counts map[int]float64, tok int) (p, total float64, ok bool) {
	if counts == nil {
		return 0, 0, false
	}
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0, 0, false
	}
	return counts[tok] / total, total, true
}

// Prob returns the interpolated probability of tok after context
// (prev2, prev1).
func (m *Model) Prob(prev2, prev1, tok int) float64 {
	c := m.Capacity
	// Interpolation weights: capacity feeds the high orders. Even the
	// weakest model keeps a substantial trigram share — all the
	// scatter models are competent LLMs spanning only ppl ≈ 3–5.
	l3 := 0.52 + 0.45*c
	l2 := 0.6 * (1 - l3)
	rest := 1 - l3 - l2
	l1 := rest * 0.9
	l0 := rest * 0.1

	// Witten-Bell-style confidence: trust an order only in proportion
	// to how often its context was observed, backing the rest off to
	// lower orders. This keeps high-capacity models from overfitting
	// sparse trigram counts.
	var p float64
	if p3, n, ok := dist(m.tri[[2]int{prev2, prev1}], tok); ok {
		conf := n / (n + 2)
		p += l3 * conf * p3
		backoff := l3 * (1 - conf)
		l1 += backoff * 0.9
		l0 += backoff * 0.1
	} else {
		l1 += l3 * 0.9
		l0 += l3 * 0.1
	}
	if p2, n, ok := dist(m.bi[prev1], tok); ok {
		conf := n / (n + 2)
		p += l2 * conf * p2
		backoff := l2 * (1 - conf)
		l1 += backoff * 0.9
		l0 += backoff * 0.1
	} else {
		l1 += l2 * 0.9
		l0 += l2 * 0.1
	}
	p += l1 * (m.uni[tok] / m.uniTotal)
	p += l0 / float64(m.vocab)
	return p
}

// Perplexity evaluates exp(mean NLL) on the corpus's held-out split.
func (m *Model) Perplexity(c *Corpus) (float64, error) {
	if len(c.Test) < 3 {
		return 0, errors.New("perplexity: test split too small")
	}
	var nll float64
	n := 0
	for i := 2; i < len(c.Test); i++ {
		p := m.Prob(c.Test[i-2], c.Test[i-1], c.Test[i])
		if p <= 0 {
			return 0, fmt.Errorf("perplexity: zero probability at %d", i)
		}
		nll -= math.Log(p)
		n++
	}
	return math.Exp(nll / float64(n)), nil
}

// --- per-LLM capacity calibration ----------------------------------------

// capacities maps model names to n-gram capacities, calibrated so the
// measured perplexities land in the paper's Fig. 10 layout. Ordering
// ground truth: LLaMA-2-7B best (MHSA over GQA, §V-2), Mistral-7B
// +0.09, then LLaMA-3-8B, Gemma, DeciLM, LLaMA-7B, Qwen1.5, Aquila,
// GPT-J, OPT, Bloom.
var capacities = map[string]float64{
	"LLaMA-2-7B": 1.00,
	"Mistral-7B": 0.94,
	"LLaMA-3-8B": 0.90,
	"Gemma-7B":   0.84,
	"DeciLM-7B":  0.78,
	"LLaMA-7B":   0.70,
	"Qwen1.5-7B": 0.62,
	"Aquila-7B":  0.50,
	"GPT-J-6B":   0.34,
	"OPT-6.7B":   0.24,
	"Bloom-7.1B": 0.14,
}

// Capacity returns the calibrated n-gram capacity for a model name.
func Capacity(modelName string) (float64, error) {
	if c, ok := capacities[modelName]; ok {
		return c, nil
	}
	return 0, fmt.Errorf("perplexity: no calibrated capacity for %q (have %v)", modelName, ScatterModels())
}

// ScatterModels returns the models appearing in the Fig. 10 scatter,
// sorted by name.
func ScatterModels() []string {
	names := make([]string, 0, len(capacities))
	for n := range capacities {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Evaluator bundles a shared corpus with per-model evaluation.
type Evaluator struct {
	corpus *Corpus
	cache  map[float64]float64
}

// NewEvaluator builds the standard benchmark corpus (seeded, so every
// run and every platform sees identical numbers).
func NewEvaluator() (*Evaluator, error) {
	c, err := GenerateCorpus(20240531, 64, 240000, 24000)
	if err != nil {
		return nil, err
	}
	return &Evaluator{corpus: c, cache: make(map[float64]float64)}, nil
}

// ModelPerplexity trains an n-gram model at the named LLM's calibrated
// capacity and evaluates held-out perplexity.
func (e *Evaluator) ModelPerplexity(modelName string) (float64, error) {
	cap_, err := Capacity(modelName)
	if err != nil {
		return 0, err
	}
	if ppl, ok := e.cache[cap_]; ok {
		return ppl, nil
	}
	m, err := Train(e.corpus, cap_)
	if err != nil {
		return 0, err
	}
	ppl, err := m.Perplexity(e.corpus)
	if err != nil {
		return 0, err
	}
	e.cache[cap_] = ppl
	return ppl, nil
}
