package des_test

// Tiered-prefix serving tests: the admission path must price the
// kvcache.PrefillDiscounter contract — cached prefix tokens skip
// prefill compute, restored ones charge host-link seconds — and stay
// byte-identical between coalesced and stepped, and the chunked
// prefill slot must schedule slices shortest-remaining-first so a hit
// never serializes behind a cold prompt's establishment.

import (
	"testing"

	"llmbench/internal/des"
	"llmbench/internal/dtype"
	"llmbench/internal/kvcache"
	"llmbench/internal/model"
	"llmbench/internal/workload"
)

// tieredAlloc builds a Tiered allocator whose shared prefix is
// prefixTokens long, over capGiB of device KV and hostGiB of host tier.
func tieredAlloc(t *testing.T, prefixTokens int, capGiB, hostGiB float64) *kvcache.Tiered {
	t.Helper()
	m := model.MustGet("LLaMA-3-8B")
	gpu, err := kvcache.NewPrefixPaged(16, prefixTokens, m.KVBytesPerToken(dtype.FP16), capGiB*(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	tv, err := kvcache.NewTiered(gpu, hostGiB*(1<<30), kvcache.HostLink{GBPerS: 32, LatencyS: 5e-6})
	if err != nil {
		t.Fatal(err)
	}
	return tv
}

// sharedPrefixTrace builds a trace whose every prompt fronts the same
// prefix: inputs at least prefixTokens long, spaced at the given gap.
func sharedPrefixTrace(n, prefixTokens, suffix, output int, gapS float64) []workload.Request {
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.Request{
			ID: i, Input: prefixTokens + suffix, Output: output,
			Arrival: float64(i) * gapS,
		}
	}
	return reqs
}

// runTiered runs the trace on one station backed by a Tiered allocator.
func runTiered(t *testing.T, cfg des.Config, prefixTokens int, hostGiB float64, reqs []workload.Request) des.Result {
	t.Helper()
	k := des.New(cfg)
	k.NewStation(testEngine(t), tieredAlloc(t, prefixTokens, 16, hostGiB))
	res, err := k.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestKernelTieredDiscountAndHitCounters pins the admission pricing:
// back-to-back shared-prefix prompts hit the resident prefix, so the
// run both finishes faster than the same trace on a discount-less
// PrefixPaged and reports the hit tokens in the Result ledger.
func TestKernelTieredDiscountAndHitCounters(t *testing.T) {
	const prefix, suffix = 2048, 64
	reqs := sharedPrefixTrace(12, prefix, suffix, 16, 0.05)

	for _, mode := range []struct {
		name string
		cfg  des.Config
	}{
		{"monolithic-admission", des.Config{MaxBatch: 4}},
		{"chunked-admission", des.Config{MaxBatch: 4, ChunkedPrefill: true, PrefillChunk: 256}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			tiered := runTiered(t, mode.cfg, prefix, 4, reqs)
			if tiered.Completed != len(reqs) {
				t.Fatalf("completed %d/%d", tiered.Completed, len(reqs))
			}
			wantPrompt := len(reqs) * (prefix + suffix)
			if tiered.PromptTokens != wantPrompt {
				t.Errorf("PromptTokens = %d, want %d", tiered.PromptTokens, wantPrompt)
			}
			// Eleven of twelve prompts hit the warm prefix in full
			// (the first computes it; full blocks only, 2048 % 16 == 0).
			wantHits := (len(reqs) - 1) * prefix
			if tiered.PrefixHitTokens != wantHits {
				t.Errorf("PrefixHitTokens = %d, want %d", tiered.PrefixHitTokens, wantHits)
			}

			// The same trace through a bare PrefixPaged shares storage
			// but re-prefills every prompt: it must finish strictly
			// later.
			m := model.MustGet("LLaMA-3-8B")
			gpu, err := kvcache.NewPrefixPaged(16, prefix, m.KVBytesPerToken(dtype.FP16), 16*(1<<30))
			if err != nil {
				t.Fatal(err)
			}
			k := des.New(mode.cfg)
			k.NewStation(testEngine(t), gpu)
			bare, err := k.Run(reqs)
			if err != nil {
				t.Fatal(err)
			}
			if bare.PrefixHitTokens != 0 {
				t.Fatalf("bare PrefixPaged reported %d hit tokens", bare.PrefixHitTokens)
			}
			last := func(r des.Result) float64 {
				end := 0.0
				for _, f := range r.Finished {
					if f.Finished > end {
						end = f.Finished
					}
				}
				return end
			}
			if lt, lb := last(tiered), last(bare); lt >= lb {
				t.Errorf("tiered makespan %v must beat discount-less %v", lt, lb)
			}
		})
	}
}

// TestKernelTieredRestoreCharged drives a demote/restore cycle: the
// station drains between two bursts, the prefix demotes to the host
// tier, and the second burst's first admission pays the host-link
// restore instead of a full re-prefill — cheaper than cold, dearer
// than warm, and identically in every kernel mode.
func TestKernelTieredRestoreCharged(t *testing.T) {
	const prefix, suffix = 4096, 64
	burst := func(start float64, idBase int) []workload.Request {
		reqs := sharedPrefixTrace(4, prefix, suffix, 8, 0.02)
		for i := range reqs {
			reqs[i].ID = idBase + i
			reqs[i].Arrival += start
		}
		return reqs
	}
	// 30 s of silence between bursts: every sequence frees, the last
	// Free demotes the prefix.
	reqs := append(burst(0, 0), burst(30, 100)...)

	cfg := des.Config{MaxBatch: 4}
	withHost := runTiered(t, cfg, prefix, 4, reqs)
	// A host tier too small for the prefix drops it at demotion: the
	// second burst re-prefills from scratch.
	sub := float64(prefix/16-1) * 16 * model.MustGet("LLaMA-3-8B").KVBytesPerToken(dtype.FP16) / (1 << 30)
	noHost := runTiered(t, cfg, prefix, sub, reqs)

	if withHost.Completed != len(reqs) || noHost.Completed != len(reqs) {
		t.Fatal("both runs must complete")
	}
	// The first burst is identical; the second differs only in how the
	// prefix comes back. Restore must beat re-prefill on A100 numbers
	// (a ~1 GiB transfer at 32 GB/s ≪ a 4096-token prefill), and the
	// with-host run must report the extra hits.
	if withHost.PrefixHitTokens <= noHost.PrefixHitTokens {
		t.Errorf("restored run hits %d must exceed dropped run hits %d",
			withHost.PrefixHitTokens, noHost.PrefixHitTokens)
	}
	var restoredHead, coldHead float64
	for i, f := range withHost.Finished {
		if f.ID == 100 {
			restoredHead = f.Finished - f.Arrival
			coldHead = noHost.Finished[i].Finished - noHost.Finished[i].Arrival
		}
	}
	if restoredHead <= 0 || restoredHead >= coldHead {
		t.Errorf("restored head latency %v must undercut cold re-prefill %v", restoredHead, coldHead)
	}

	// And the whole tiered path holds the kernel's headline identity.
	for mode, mcfg := range modes(cfg) {
		got := runTiered(t, mcfg, prefix, 4, reqs)
		if got.PrefixHitTokens != withHost.PrefixHitTokens || got.Completed != withHost.Completed {
			t.Errorf("%s: tiered counters differ (hits %d vs %d)", mode, got.PrefixHitTokens, withHost.PrefixHitTokens)
		}
		if len(got.Finished) != len(withHost.Finished) {
			t.Fatalf("%s: ledger length differs", mode)
		}
		for i := range got.Finished {
			if got.Finished[i] != withHost.Finished[i] {
				t.Errorf("%s: request %d stats differ from the coalesced reference", mode, got.Finished[i].ID)
				break
			}
		}
	}
}

// TestStationChunkedShortestSliceFirst pins the fused-slot discipline:
// the slice goes to the pending prompt with the fewest tokens left, so
// a short suffix admitted during a long prompt's establishment
// overtakes it instead of inheriting its whole prefill.
func TestStationChunkedShortestSliceFirst(t *testing.T) {
	reqs := []workload.Request{
		{ID: 0, Input: 4096, Output: 4, Arrival: 0},
		{ID: 1, Input: 256, Output: 4, Arrival: 0.01},
	}
	cfg := des.Config{MaxBatch: 4, ChunkedPrefill: true, PrefillChunk: 256}
	k := des.New(cfg)
	k.NewStation(testEngine(t), testAlloc(t, 16))
	res, err := k.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed %d/2", res.Completed)
	}
	var long, short des.RequestStats
	for _, f := range res.Finished {
		if f.ID == 0 {
			long = f
		} else {
			short = f
		}
	}
	if short.Finished >= long.Finished {
		t.Errorf("256-token prompt (done %v) must overtake the 4096-token one (done %v)",
			short.Finished, long.Finished)
	}
	assertModesIdentical(t, "sjf-slices", cfg, 1, 16, reqs)
}

// TestStationPendingPrefillTokens reads the router-facing backlog
// gauge at arrival instants: positive while a chunked prompt is mid-
// establishment, always zero in monolithic admission (prefill is
// charged whole at the admission event).
func TestStationPendingPrefillTokens(t *testing.T) {
	reqs := []workload.Request{
		{ID: 0, Input: 4096, Output: 4, Arrival: 0},
		{ID: 1, Input: 256, Output: 4, Arrival: 0.01},
		{ID: 2, Input: 256, Output: 4, Arrival: 0.02},
	}
	for _, mode := range []struct {
		name    string
		chunked bool
	}{{"chunked", true}, {"monolithic", false}} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := des.Config{MaxBatch: 4}
			if mode.chunked {
				cfg.ChunkedPrefill = true
				cfg.PrefillChunk = 256
			}
			k := des.New(cfg)
			st := k.NewStation(testEngine(t), testAlloc(t, 16))
			maxPending := 0
			k.Route = func(now float64) *des.Station {
				if p := st.PendingPrefillTokens(); p > maxPending {
					maxPending = p
				}
				return st
			}
			if _, err := k.Run(reqs); err != nil {
				t.Fatal(err)
			}
			if mode.chunked && maxPending == 0 {
				t.Error("chunked: a 4096-token prompt must show prefill backlog at the next arrival")
			}
			if !mode.chunked && maxPending != 0 {
				t.Errorf("monolithic: backlog gauge read %d, want 0", maxPending)
			}
		})
	}
}
