package experiments

import (
	"testing"

	"llmbench/internal/engine"
	"llmbench/internal/framework"
	"llmbench/internal/hw"
	"llmbench/internal/model"
	"llmbench/internal/parallel"
)

// TestOneEngineCacheAcrossLayers pins the unification: the experiment
// helper and a direct engine.Cached call resolve to the same *Engine,
// because there is exactly one engine cache in the process.
func TestOneEngineCacheAcrossLayers(t *testing.T) {
	a, err := mk("LLaMA-3-8B", "A100", "vLLM", parallel.Single)
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.Cached(engine.Config{
		Model:     model.MustGet("LLaMA-3-8B"),
		Device:    hw.MustGet("A100"),
		Framework: framework.MustGet("vLLM"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("experiments and engine.Cached must share one engine instance")
	}
}
