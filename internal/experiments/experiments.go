// Package experiments reproduces every table and figure of the
// paper's evaluation: each Experiment regenerates one figure's series
// (or one table's rows) through the simulation engine, and the
// registry maps paper IDs ("fig6", "tab2") to runnable code.
//
// Workload parameters are copied from the figure captions. Points the
// paper could not run (OOM, unsupported combinations) are skipped and
// recorded as figure notes, mirroring the paper's gaps.
package experiments

import (
	"errors"
	"fmt"
	"sort"

	"llmbench/internal/engine"
	"llmbench/internal/framework"
	"llmbench/internal/hw"
	"llmbench/internal/metrics"
	"llmbench/internal/model"
	"llmbench/internal/parallel"
	"llmbench/internal/pool"
	"llmbench/internal/workload"
)

// Output is an experiment's result: figures carry series; tables carry
// pre-rendered text.
type Output struct {
	Figure *metrics.Figure
	Text   string
}

// Markdown renders the output for the CLI.
func (o *Output) Markdown() string {
	if o.Figure != nil {
		return o.Figure.Markdown()
	}
	return o.Text
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID       string // paper reference: "fig6", "tab1", …
	Title    string
	Workload string   // parameter summary
	Modules  []string // implementing packages
	Run      func() (*Output, error)
}

var registry []*Experiment

func register(e *Experiment) {
	registry = append(registry, e)
}

// All returns every experiment in paper order.
func All() []*Experiment {
	out := make([]*Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return less(out[i].ID, out[j].ID) })
	return out
}

// less orders "fig1a" < "fig2" < "fig10" < "tab1" < "ext1": paper
// figures first, then tables, then extensions.
func less(a, b string) bool {
	pa, na, sa := split(a)
	pb, nb, sb := split(b)
	if pa != pb {
		return prefixRank(pa) < prefixRank(pb)
	}
	if na != nb {
		return na < nb
	}
	return sa < sb
}

func prefixRank(p string) int {
	switch p {
	case "fig":
		return 0
	case "tab":
		return 1
	case "ext":
		return 2
	}
	return 3
}

func split(id string) (prefix string, num int, suffix string) {
	i := 0
	for i < len(id) && (id[i] < '0' || id[i] > '9') {
		i++
	}
	prefix = id[:i]
	j := i
	for j < len(id) && id[j] >= '0' && id[j] <= '9' {
		j++
	}
	fmt.Sscanf(id[i:j], "%d", &num)
	return prefix, num, id[j:]
}

// Get returns the experiment with the given ID.
func Get(id string) (*Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}

// RunExperiments runs the experiments with the given IDs on at most
// parallelism workers (parallelism < 1 means GOMAXPROCS) and returns
// their outputs in the same order as ids. Experiments are
// deterministic pure computations, so the outputs are identical at
// any parallelism; on failure the error reported is the one belonging
// to the earliest id, again independent of scheduling.
func RunExperiments(ids []string, parallelism int) ([]*Output, error) {
	exps := make([]*Experiment, len(ids))
	for i, id := range ids {
		e, err := Get(id)
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	return pool.Map(len(exps), parallelism, func(i int) (*Output, error) {
		out, err := exps[i].Run()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", exps[i].ID, err)
		}
		return out, nil
	})
}

// --- shared helpers -------------------------------------------------------

// mk returns the shared engine for a catalog-named system through the
// process-wide engine cache (engine.Cached) — the same cache the root
// llmbench package builds through, so experiments and ad-hoc sweeps in
// one process share every build and its memoised step costs.
func mk(modelName, devName, fwName string, plan parallel.Plan) (*engine.Engine, error) {
	return engine.Cached(engine.Config{
		Model:     model.MustGet(modelName),
		Device:    hw.MustGet(devName),
		Framework: framework.MustGet(fwName),
		Plan:      plan,
	})
}

func tp(n int) parallel.Plan { return parallel.Plan{TP: n, PP: 1, EP: 1} }

// addOrNote runs one point and records throughput, or notes the
// skip reason (paper-style OOM gaps).
func addOrNote(fig *metrics.Figure, eng *engine.Engine, label string, x float64, spec workload.Spec,
	metric func(engine.Result) float64) {
	res, err := eng.Run(spec)
	if err != nil {
		if errors.Is(err, engine.ErrOOM) || errors.Is(err, engine.ErrUnsupportedBatch) {
			fig.Note("%s skipped at x=%g: %v", label, x, err)
			return
		}
		fig.Note("%s failed at x=%g: %v", label, x, err)
		return
	}
	fig.Add(label, x, metric(res))
}

func throughput(r engine.Result) float64 { return r.Throughput }

// batchSweep adds one series of throughput-vs-batch at fixed
// input/output length.
func batchSweep(fig *metrics.Figure, eng *engine.Engine, label string, batches []int, length int) {
	for _, b := range batches {
		addOrNote(fig, eng, label, float64(b),
			workload.Spec{Batch: b, Input: length, Output: length}, throughput)
	}
}

// lengthSweep adds one series of throughput-vs-length at fixed batch.
func lengthSweep(fig *metrics.Figure, eng *engine.Engine, label string, lengths []int, batch int) {
	for _, l := range lengths {
		addOrNote(fig, eng, label, float64(l),
			workload.Spec{Batch: batch, Input: l, Output: l}, throughput)
	}
}
