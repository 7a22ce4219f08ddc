package engine

// Concurrent-memo property test (run with -race): N goroutines hammer
// one engine's pricing entry points (decode steps, ranges, vectors and
// prefills) over a mix of cold keys (first touch races the
// copy-on-write builders) and warm keys (pure atomic reads), and
// every result must be byte-identical to a serial
// reference computed on a separate engine. This is the determinism
// contract of the lock-free memo grids: racing builders compute pure
// values, so whichever racer's snapshot lands last, readers see the
// same bytes the serial path produces.

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

type memoProbe struct {
	batch, ctx, steps int
}

func memoProbeSet() []memoProbe {
	var probes []memoProbe
	for _, batch := range []int{2, 5, 8} {
		for i := 0; i < 12; i++ {
			probes = append(probes, memoProbe{batch: batch, ctx: 200 + 31*i, steps: 1 + 17*i})
		}
	}
	return probes
}

func TestMemoConcurrentMatchesSerial(t *testing.T) {
	probes := memoProbeSet()

	// Serial reference: one engine, probes evaluated in order, single
	// goroutine. Keep the full result bytes of every entry point.
	ref := rangeTestEngine(t, "vLLM")
	type expect struct {
		step    float64 // DecodeStepSeconds at the probe's context
		rng     fold
		costs   []float64
		stepSec float64 // DecodeStepSeconds one step past the range
		prefill float64 // PrefillSeconds(batch, ctx)
	}
	want := make([]expect, len(probes))
	for i, p := range probes {
		step, err := ref.DecodeStepSeconds(p.batch, p.ctx)
		if err != nil {
			t.Fatal(err)
		}
		rng := rangeFold(ref, p.batch, p.ctx, p.steps)
		costs, err := stepCosts(ref, p.batch, p.ctx, p.steps)
		if err != nil {
			t.Fatal(err)
		}
		stepSec, err := ref.DecodeStepSeconds(p.batch, p.ctx+p.steps)
		if err != nil {
			t.Fatal(err)
		}
		prefill, err := ref.PrefillSeconds(p.batch, p.ctx)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = expect{step: step, rng: rng, costs: costs, stepSec: stepSec, prefill: prefill}
	}

	// Hammered engine: starts fully cold, so the first pass through
	// each probe races the builders; later rounds hit warm snapshots.
	// Each goroutine walks the probes at a different rotation so cold
	// keys are contended from the first instant.
	eng := rangeTestEngine(t, "vLLM")
	const workers = 8
	const rounds = 5
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			check := func(i int, p memoProbe) error {
				step, err := eng.DecodeStepSeconds(p.batch, p.ctx)
				if err != nil {
					return err
				}
				if math.Float64bits(step) != math.Float64bits(want[i].step) {
					return fmt.Errorf("probe %v: step %v, serial %v", p, step, want[i].step)
				}
				if rng := rangeFold(eng, p.batch, p.ctx, p.steps); rng != want[i].rng {
					return fmt.Errorf("probe %v: range %+v, serial %+v", p, rng, want[i].rng)
				}
				costs, err := stepCosts(eng, p.batch, p.ctx, p.steps)
				if err != nil {
					return err
				}
				for j := range costs {
					if costs[j] != want[i].costs[j] {
						return fmt.Errorf("probe %v: cost[%d] %v, serial %v", p, j, costs[j], want[i].costs[j])
					}
				}
				stepSec, err := eng.DecodeStepSeconds(p.batch, p.ctx+p.steps)
				if err != nil {
					return err
				}
				if math.Float64bits(stepSec) != math.Float64bits(want[i].stepSec) {
					return fmt.Errorf("probe %v: step seconds %v, serial %v", p, stepSec, want[i].stepSec)
				}
				prefill, err := eng.PrefillSeconds(p.batch, p.ctx)
				if err != nil {
					return err
				}
				if math.Float64bits(prefill) != math.Float64bits(want[i].prefill) {
					return fmt.Errorf("probe %v: prefill %v, serial %v", p, prefill, want[i].prefill)
				}
				return nil
			}
			for r := 0; r < rounds; r++ {
				for k := range probes {
					i := (k + w*len(probes)/workers) % len(probes)
					if err := check(i, probes[i]); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestStepVecFloorConcurrent (run with -race): goroutines grow one
// engine's master step vectors upward in place, past capacity, and
// downward (a re-base publishes a fresh generation) at once, and every
// StepVec they get back must carry a floor no greater than any cell it
// covers and a rising certificate no lower than any descent in it —
// both read after the cells, as the serving kernel reads them. Once
// the builders are done, each generation a builder saw cover its band
// has a floor of exactly its smallest published cell and a
// certificate of exactly its highest descent.
func TestStepVecFloorConcurrent(t *testing.T) {
	eng := rangeTestEngine(t, "vLLM")
	const workers = 6
	gens := make([][]*stepVec, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				batch := 2 + (w+i)%3
				ctx := 1200 - 29*i + 7*w // falling anchors force re-bases
				if w%2 == 1 {
					ctx = 300 + 41*i // rising anchors grow in place
				}
				steps := 1 + 23*i
				v, err := eng.DecodeStepVec(batch, ctx, steps)
				if err != nil {
					errs[w] = err
					return
				}
				cells, floor, rise := v.Seconds, v.Floor, v.Rise
				for j, c := range cells {
					if floor > c {
						errs[w] = fmt.Errorf("batch %d ctx %d: floor %v above cell %d = %v", batch, ctx, floor, j, c)
						return
					}
					if j > 0 && ctx+j > rise && !(c >= cells[j-1]) {
						errs[w] = fmt.Errorf("batch %d ctx %d: certificate %d, but cell %d = %v falls from %v", batch, ctx, rise, j, c, cells[j-1])
						return
					}
				}
				gens[w] = append(gens[w], eng.masterFor(batch, ctx, ctx+steps-1))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, gs := range gens {
		for _, g := range gs {
			cells := g.seconds[:g.n.Load()]
			lowest := cells[0]
			for _, c := range cells {
				lowest = min(lowest, c)
			}
			if f := math.Float64frombits(g.floor.Load()); f != lowest {
				t.Fatalf("generation at base %d: floor %v, smallest published cell %v", g.base, f, lowest)
			}
			if r, want := int(g.rise.Load()), bruteRise(g); r != want {
				t.Fatalf("generation at base %d: certificate %d, highest descent %d", g.base, r, want)
			}
		}
	}
}
