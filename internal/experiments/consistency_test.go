package experiments

// Cross-figure consistency: the same (model, device, framework,
// batch, length) point appears in several paper figures; the
// reproduction must give it the same value everywhere.

import (
	"math"
	"testing"
)

func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func TestFig6AndFig15AgreeOnA100TRT(t *testing.T) {
	// A100 + TRT-LLM + 7B models at len 1024 appear in both Fig. 6
	// (hardware comparison) and Fig. 15 (framework comparison).
	fig6 := runFig(t, "fig6")
	fig15 := runFig(t, "fig15")
	for _, m := range []string{"Mistral-7B", "LLaMA-3-8B", "LLaMA-2-7B"} {
		for _, b := range []float64{1, 16, 32, 64} {
			v6 := at(t, fig6, "A100, "+m, b)
			v15 := at(t, fig15, "TRT-LLM "+m, b)
			if !closeEnough(v6, v15) {
				t.Errorf("%s bs %g: fig6 %.3f vs fig15 %.3f", m, b, v6, v15)
			}
		}
	}
}

func TestFig8AndFig35AgreeOnMI250(t *testing.T) {
	// MI250 + vLLM + LLaMA-3-8B at len 1024 appears in Fig. 8 and
	// Fig. 35.
	fig8 := runFig(t, "fig8")
	fig35 := runFig(t, "fig35")
	for _, b := range []float64{1, 16, 32, 64} {
		v8 := at(t, fig8, "MI250 LLaMA-3-8B", b)
		v35 := at(t, fig35, "LLaMA-3-8B", b)
		if !closeEnough(v8, v35) {
			t.Errorf("bs %g: fig8 %.3f vs fig35 %.3f", b, v8, v35)
		}
	}
}

func TestFig23AndFig6AgreeOnH100(t *testing.T) {
	// H100 + TRT-LLM + LLaMA-3-8B at len 1024 appears in Fig. 6 and
	// Fig. 23.
	fig6 := runFig(t, "fig6")
	fig23 := runFig(t, "fig23")
	for _, b := range []float64{1, 16, 32, 64} {
		v6 := at(t, fig6, "H100, LLaMA-3-8B", b)
		v23 := at(t, fig23, "1 H100 TRT-LLM", b)
		if !closeEnough(v6, v23) {
			t.Errorf("bs %g: fig6 %.3f vs fig23 %.3f", b, v6, v23)
		}
	}
}

func TestFig2bDefaultBlockMatchesFig1a(t *testing.T) {
	// vLLM's default block size is 16 — Fig. 2b's block-16 series at
	// len 1024 must equal Fig. 1a's len-1024 series.
	fig1a := runFig(t, "fig1a")
	fig2b := runFig(t, "fig2b")
	for _, b := range []float64{1, 16, 32, 64} {
		v1 := at(t, fig1a, "len 1024", b)
		v2 := at(t, fig2b, "block 16", b)
		if !closeEnough(v1, v2) {
			t.Errorf("bs %g: fig1a %.3f vs fig2b block-16 %.3f", b, v1, v2)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	// The whole pipeline is deterministic: running an experiment twice
	// gives identical output. The second run prices every point again
	// through the engine's warm memo, which must agree with the run
	// that filled it.
	a := runFig(t, "fig12")
	b := runFig(t, "fig12")
	if len(a.Series) != len(b.Series) {
		t.Fatalf("%d series, then %d", len(a.Series), len(b.Series))
	}
	for i, sa := range a.Series {
		sb := b.Series[i]
		if sa.Label != sb.Label || len(sa.Points) != len(sb.Points) {
			t.Fatal("series mismatch between runs")
		}
		for j := range sa.Points {
			if sa.Points[j] != sb.Points[j] {
				t.Fatalf("point %d of %s differs across runs", j, sa.Label)
			}
		}
	}
}
