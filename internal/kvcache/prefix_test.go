package kvcache

import (
	"errors"
	"testing"
)

func mustPrefix(t *testing.T, block, prefix int, perTok, cap float64) *PrefixPaged {
	t.Helper()
	p, err := NewPrefixPaged(block, prefix, perTok, cap)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPrefixSharingSavesStorage(t *testing.T) {
	// 8 sequences sharing a 512-token prefix: the plain paged
	// allocator stores the prefix 8 times, the prefix-aware one once.
	const prefix, private = 512, 128
	plain := mustPaged(t, 16, 1, 1e9)
	shared := mustPrefix(t, 16, prefix, 1, 1e9)
	for i := 0; i < 8; i++ {
		if _, err := plain.Alloc(prefix + private); err != nil {
			t.Fatal(err)
		}
		if _, err := shared.Alloc(prefix + private); err != nil {
			t.Fatal(err)
		}
	}
	if plain.UsedBytes() <= shared.UsedBytes() {
		t.Fatalf("sharing must save storage: plain %v vs shared %v",
			plain.UsedBytes(), shared.UsedBytes())
	}
	// Expected: plain 8·(512+128), shared 512 + 8·128.
	wantShared := float64(prefix + 8*private)
	if shared.UsedBytes() != wantShared {
		t.Errorf("shared usage %v, want %v", shared.UsedBytes(), wantShared)
	}
	if shared.SharedBytes() != prefix {
		t.Errorf("shared prefix bytes %v, want %v", shared.SharedBytes(), float64(prefix))
	}
}

func TestPrefixRefCounting(t *testing.T) {
	p := mustPrefix(t, 16, 256, 1, 1e6)
	s1 := mustAlloc(t, p, 300)
	s2 := mustAlloc(t, p, 300)
	p.Free(s1)
	if p.SharedBytes() != 256 {
		t.Error("prefix must stay while one reference remains")
	}
	p.Free(s2)
	if p.SharedBytes() != 0 {
		t.Error("prefix must be released with the last reference")
	}
	if p.UsedBytes() != 0 {
		t.Errorf("all storage must be free, used = %v", p.UsedBytes())
	}
	p.Free(Seq(0)) // unknown free is a no-op
	p.Free(s1)     // stale free is a no-op
}

func TestPrefixExtendGrowsPrivateOnly(t *testing.T) {
	p := mustPrefix(t, 16, 256, 1, 1e6)
	s := mustAlloc(t, p, 256)
	base := p.UsedBytes()
	if err := p.Extend(s, 256+16); err != nil {
		t.Fatal(err)
	}
	if p.UsedBytes() != base+16 {
		t.Errorf("extend should add one private block: %v -> %v", base, p.UsedBytes())
	}
	if err := p.Extend(s, 100); err == nil {
		t.Error("shrink must fail")
	}
	if err := p.Extend(Seq(0), 300); err == nil {
		t.Error("unknown sequence must fail")
	}
}

func TestPrefixOOM(t *testing.T) {
	// Capacity for the prefix plus one private block only.
	p := mustPrefix(t, 16, 64, 1, 64+16)
	if _, err := p.Alloc(80); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(80); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("second private block must OOM, got %v", err)
	}
	// But a prefix-only sequence still fits (shares everything).
	if _, err := p.Alloc(64); err != nil {
		t.Errorf("prefix-only sequence must share: %v", err)
	}
}

func TestPrefixConstructorErrors(t *testing.T) {
	if _, err := NewPrefixPaged(0, 64, 1, 100); err == nil {
		t.Error("block 0 must fail")
	}
	if _, err := NewPrefixPaged(16, -1, 1, 100); err == nil {
		t.Error("negative prefix must fail")
	}
	if _, err := NewPrefixPaged(16, 64, 0, 100); err == nil {
		t.Error("zero bytes/token must fail")
	}
}

func TestPrefixStaleHandle(t *testing.T) {
	p := mustPrefix(t, 16, 64, 1, 1e6)
	s := mustAlloc(t, p, 64)
	p.Free(s)
	if err := p.Extend(s, 80); err == nil {
		t.Error("freed handle must be dead")
	}
	s2 := mustAlloc(t, p, 64) // recycles the slot
	if s2 == s {
		t.Fatal("recycled slot must carry a new generation")
	}
	used := p.UsedBytes()
	p.Free(s) // stale free must not drop the new occupant's reference
	if p.Sequences() != 1 || p.UsedBytes() != used || p.SharedBytes() != 64 {
		t.Error("stale free must be a no-op")
	}
}

func TestPrefixInvariantUnderChurn(t *testing.T) {
	p := mustPrefix(t, 16, 512, 2, 1<<20)
	var live []Seq
	for i := 0; i < 200; i++ {
		switch i % 3 {
		case 0, 1:
			if p.CanAlloc(512 + i) {
				if s, err := p.Alloc(512 + i); err == nil {
					live = append(live, s)
				}
			}
		case 2:
			if len(live) > 0 {
				p.Free(live[0])
				live = live[1:]
			}
		}
		if p.UsedBytes() > p.CapacityBytes() {
			t.Fatal("usage exceeded capacity")
		}
		if len(live) == 0 && p.SharedBytes() != 0 {
			t.Fatal("prefix leaked with no live sequences")
		}
	}
}
