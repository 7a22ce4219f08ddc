package kvcache

// Tiered offload tests: the Tiered wrapper must demote a prefix that
// fits the host tier and drop one that does not, price exactly one
// restore per cold re-reference while a warm prefix discounts for
// free — with the whole promote/demote/restore cycle allocating
// nothing once warm, like every other allocator in the package.

import (
	"errors"
	"math"
	"testing"
)

func mustTiered(t *testing.T, block, prefix int, capBytes, hostBytes float64) *Tiered {
	t.Helper()
	gpu, err := NewPrefixPaged(block, prefix, 1, capBytes)
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := NewTiered(gpu, hostBytes, HostLink{GBPerS: 32, LatencyS: 5e-6})
	if err != nil {
		t.Fatal(err)
	}
	return tiered
}

func TestHostLinkValidate(t *testing.T) {
	good := HostLink{GBPerS: 32, LatencyS: 5e-6}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []HostLink{
		{GBPerS: 0, LatencyS: 5e-6},
		{GBPerS: -1, LatencyS: 5e-6},
		{GBPerS: math.Inf(1), LatencyS: 5e-6},
		{GBPerS: math.NaN(), LatencyS: 5e-6},
		{GBPerS: 32, LatencyS: 0},
		{GBPerS: 32, LatencyS: -1},
		{GBPerS: 32, LatencyS: math.Inf(1)},
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("link %+v must fail validation", l)
		}
	}
	// 32 GB/s moving 32e9 bytes is one second plus the latency floor.
	if got := good.Seconds(32e9); math.Abs(got-(1+5e-6)) > 1e-12 {
		t.Errorf("Seconds(32 GB) = %v, want 1+5e-6", got)
	}
}

func TestTieredConstructorErrors(t *testing.T) {
	if _, err := NewTiered(nil, 1<<20, HostLink{GBPerS: 32, LatencyS: 5e-6}); err == nil {
		t.Error("nil device allocator must fail")
	}
	gpu, err := NewPrefixPaged(16, 64, 1, 16*100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTiered(gpu, 1<<20, HostLink{}); err == nil {
		t.Error("invalid link must fail")
	}
	// A host budget below one block holds nothing: reject at build.
	if _, err := NewTiered(gpu, 15, HostLink{GBPerS: 32, LatencyS: 5e-6}); err == nil {
		t.Error("sub-block host tier must fail")
	}
}

func TestTieredColdWarmDemoteRestore(t *testing.T) {
	// Block 16, prefix 64 → 4 shared full blocks (64 tokens).
	tv := mustTiered(t, 16, 64, 16*100, 16*8)

	s1 := mustAlloc(t, tv, 100)
	if skip, rs := tv.TakePrefillDiscount(); skip != 0 || rs != 0 {
		t.Errorf("first-ever reference must prefill the prefix itself, got skip %d restore %v", skip, rs)
	}
	if tv.HotPrefixTokens() != 64 || tv.RestorablePrefixTokens() != 0 {
		t.Errorf("hot/restorable = %d/%d, want 64/0", tv.HotPrefixTokens(), tv.RestorablePrefixTokens())
	}

	s2 := mustAlloc(t, tv, 100) // warm hit: prefix resident
	if skip, rs := tv.TakePrefillDiscount(); skip != 64 || rs != 0 {
		t.Errorf("warm hit: skip %d restore %v, want 64 free tokens", skip, rs)
	}

	tv.Free(s1)
	if tv.RestorablePrefixTokens() != 0 {
		t.Error("prefix still referenced: nothing may demote")
	}
	tv.Free(s2) // last reference: demote to host
	if tv.HotPrefixTokens() != 0 || tv.RestorablePrefixTokens() != 64 {
		t.Errorf("hot/restorable = %d/%d, want 0/64 after drain", tv.HotPrefixTokens(), tv.RestorablePrefixTokens())
	}
	if tv.HostUsedBytes() != 64 {
		t.Errorf("host bytes = %v, want 64", tv.HostUsedBytes())
	}

	s3 := mustAlloc(t, tv, 100) // cold on device, resident on host: restore
	skip, rs := tv.TakePrefillDiscount()
	if skip != 64 {
		t.Errorf("restored prefix must discount its 64 tokens, got %d", skip)
	}
	if want := tv.RestoreSeconds(); rs != want || !(rs > 0) {
		t.Errorf("restore charge %v, want %v (one full-prefix transfer)", rs, want)
	}
	if tv.HostUsedBytes() != 0 {
		t.Error("restore must vacate the host tier")
	}
	tv.Free(s3) // last reference again: a second demotion
	if tv.HotPrefixTokens() != 0 || tv.RestorablePrefixTokens() != 64 || tv.HostUsedBytes() != 64 {
		t.Errorf("hot/restorable = %d/%d, host bytes %v; want 0/64, 64 after the second drain",
			tv.HotPrefixTokens(), tv.RestorablePrefixTokens(), tv.HostUsedBytes())
	}
	if skip, rs := tv.TakePrefillDiscount(); skip != 0 || rs != 0 {
		t.Errorf("a demotion accrues no discount, got skip %d restore %v", skip, rs)
	}
}

func TestTieredSkipNeverCoversLastToken(t *testing.T) {
	tv := mustTiered(t, 16, 64, 16*100, 16*8)
	s1 := mustAlloc(t, tv, 100)
	tv.TakePrefillDiscount()
	// A prompt of exactly the shared length still recomputes its last
	// token — its logits produce the first output.
	s2 := mustAlloc(t, tv, 64)
	if skip, _ := tv.TakePrefillDiscount(); skip != 63 {
		t.Errorf("skip = %d, want 63 (last token always computed)", skip)
	}
	// A prompt shorter than the shared prefix discounts what it has.
	s3 := mustAlloc(t, tv, 32)
	if skip, _ := tv.TakePrefillDiscount(); skip != 31 {
		t.Errorf("skip = %d, want 31", skip)
	}
	tv.Free(s1)
	tv.Free(s2)
	tv.Free(s3)
}

func TestTieredPrefixTooLargeForTier(t *testing.T) {
	// Block 16, prefix 64 → a 4-block prefix. A tier of exactly 4
	// blocks holds it; one block fewer drops it on demotion, exactly
	// as no tier would.
	cases := []struct {
		name      string
		hostBytes float64
		fits      bool
	}{
		{"exact-fit", 16 * 4, true},
		{"one-block-short", 16 * 3, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tv := mustTiered(t, 16, 64, 16*100, c.hostBytes)
			s := mustAlloc(t, tv, 100)
			tv.TakePrefillDiscount()
			tv.Free(s)
			restorable, hostBytes := 0, 0.0
			if c.fits {
				restorable, hostBytes = 64, 64
			}
			if tv.RestorablePrefixTokens() != restorable || tv.HostUsedBytes() != hostBytes {
				t.Fatalf("after demotion: restorable %d, host bytes %v; want %d, %v",
					tv.RestorablePrefixTokens(), tv.HostUsedBytes(), restorable, hostBytes)
			}
			s = mustAlloc(t, tv, 100)
			skip, rs := tv.TakePrefillDiscount()
			switch {
			case c.fits && (skip != 64 || rs != tv.RestoreSeconds()):
				t.Errorf("restored prefix: skip %d restore %v, want 64 and one charge of %v", skip, rs, tv.RestoreSeconds())
			case !c.fits && (skip != 0 || rs != 0):
				t.Errorf("cold re-reference must not discount, got skip %d restore %v", skip, rs)
			}
			if tv.HostUsedBytes() != 0 {
				t.Error("the host tier must be empty once the prefix is back on the device")
			}
			tv.Free(s) // a second demotion when the prefix fits
			if tv.RestorablePrefixTokens() != restorable || tv.HostUsedBytes() != hostBytes {
				t.Errorf("after the second drain: restorable %d, host bytes %v; want %d, %v",
					tv.RestorablePrefixTokens(), tv.HostUsedBytes(), restorable, hostBytes)
			}
		})
	}
}

func TestTieredZeroPrefixDegradesToPaged(t *testing.T) {
	tv := mustTiered(t, 16, 0, 16*100, 16*8)
	s := mustAlloc(t, tv, 100)
	if skip, rs := tv.TakePrefillDiscount(); skip != 0 || rs != 0 {
		t.Error("no shared prefix, no discount")
	}
	if tv.HotPrefixTokens() != 0 || tv.RestorablePrefixTokens() != 0 {
		t.Error("no shared prefix, nothing hot or restorable")
	}
	tv.Free(s)
	if tv.HostUsedBytes() != 0 {
		t.Error("nothing may demote")
	}
}

func TestTieredStaleFreeNeverDemotes(t *testing.T) {
	tv := mustTiered(t, 16, 64, 16*100, 16*8)
	s := mustAlloc(t, tv, 100)
	tv.TakePrefillDiscount()
	stale := mustAlloc(t, tv, 100)
	tv.Free(stale)
	if tv.RestorablePrefixTokens() != 0 {
		t.Fatal("a live reference remains: nothing may demote")
	}
	// The dead handle must not probe the demotion path again: the
	// prefix is still referenced by s, and a double free that reached
	// Free's tail would demote a hot prefix.
	tv.Free(stale)
	if tv.HotPrefixTokens() != 64 || tv.RestorablePrefixTokens() != 0 {
		t.Error("double free must leave the hot prefix alone")
	}
	if err := tv.Extend(s, 128); err != nil {
		t.Fatal(err)
	}
	tv.Free(s)
}

// TestTieredWarmCycleAllocs extends the package's zero-allocation
// discipline across the tier boundary: once the slot table, free
// stack and scratch buffer have grown, a full
// alloc→extend→free→demote→alloc→restore cycle allocates nothing.
func TestTieredWarmCycleAllocs(t *testing.T) {
	tv := mustTiered(t, 16, 256, 16*4096, 16*64)
	var seqs [8]Seq
	cycle := func() {
		for i := range seqs {
			seq, err := tv.Alloc(512 + 16*i)
			if err != nil {
				t.Fatal(err)
			}
			seqs[i] = seq
		}
		_, _ = tv.TakePrefillDiscount()
		for step := 0; step < 32; step++ {
			if tv.MaxExtendSteps(seqs[:], 64) < 1 {
				t.Fatal("warm pool unexpectedly full")
			}
			for i, seq := range seqs {
				if err := tv.Extend(seq, 512+16*i+step+1); err != nil {
					t.Fatal(err)
				}
			}
		}
		_ = tv.UsedBytes()
		_ = tv.WasteBytes()
		_ = tv.HostUsedBytes()
		_ = tv.HotPrefixTokens()
		_ = tv.RestorablePrefixTokens()
		for _, seq := range seqs {
			tv.Free(seq) // last free demotes the prefix to the host tier
		}
	}
	cycle() // warm every table; the next cycle restores the demoted prefix
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Errorf("warm tiered demote/restore cycle allocates %.1f times, want 0", avg)
	}
}

func TestTieredDelegation(t *testing.T) {
	tv := mustTiered(t, 16, 64, 16*100, 16*8)
	if tv.CapacityBytes() != 16*100 {
		t.Errorf("capacity = %v, want the device budget", tv.CapacityBytes())
	}
	s := mustAlloc(t, tv, 100)
	if !tv.CanAlloc(100) {
		t.Error("plenty of room: CanAlloc must hold")
	}
	if tv.Sequences() != 1 {
		t.Errorf("sequences = %d, want 1", tv.Sequences())
	}
	if tv.UsedBytes() != tv.gpu.UsedBytes() || tv.WasteBytes() != tv.gpu.WasteBytes() {
		t.Error("usage must mirror the device allocator")
	}
	if err := tv.Extend(s, 0); err == nil {
		t.Error("shrinking must fail through the wrapper")
	}
	var ifc Allocator = tv // the wrapper is a drop-in Allocator
	if _, ok := ifc.(PrefillDiscounter); !ok {
		t.Error("Tiered must implement PrefillDiscounter")
	}
	tv.Free(s)
	if _, ok := interface{}(&PrefixPaged{}).(PrefillDiscounter); ok {
		t.Error("bare PrefixPaged must not discount (its misses re-prefill)")
	}
	if errors.Is(ErrPrefixTooLarge, ErrOutOfMemory) {
		t.Error("construction rejection must stay distinct from runtime OOM")
	}
}
