package kvcache

import (
	"math/rand/v2"
	"testing"
)

// bruteMaxSteps replays the live token counts on a twin allocator and
// step-extends all of them together until one Extend fails — the
// ground truth MaxExtendSteps must match.
func bruteMaxSteps(t *testing.T, build func() Allocator, tokens []int, limit int) int {
	t.Helper()
	twin := build()
	handles := make([]Seq, len(tokens))
	for i, tok := range tokens {
		s, err := twin.Alloc(tok)
		if err != nil {
			t.Fatalf("twin alloc %d: %v", i, err)
		}
		handles[i] = s
	}
	for k := 1; k <= limit; k++ {
		for i, s := range handles {
			if err := twin.Extend(s, tokens[i]+k); err != nil {
				return k - 1
			}
		}
	}
	return limit
}

func allocAll(t *testing.T, a Allocator, tokens []int) []Seq {
	t.Helper()
	handles := make([]Seq, len(tokens))
	for i, tok := range tokens {
		s, err := a.Alloc(tok)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		handles[i] = s
	}
	return handles
}

func TestPagedMaxExtendSteps(t *testing.T) {
	const blockTokens, bytesPerToken = 16, 1024.0
	cases := []struct {
		name     string
		capacity float64 // in blocks
		tokens   []int
	}{
		{"plenty", 1000, []int{100, 200}},
		{"tight", 40, []int{100, 200, 17}},
		{"exact-boundary", 24, []int{16, 32}},
		{"single", 12, []int{31}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			build := func() Allocator {
				a, err := NewPaged(blockTokens, bytesPerToken, c.capacity*blockTokens*bytesPerToken)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}
			live := build()
			handles := allocAll(t, live, c.tokens)
			for _, limit := range []int{1, 7, 64, 500} {
				want := bruteMaxSteps(t, build, c.tokens, limit)
				if got := live.MaxExtendSteps(handles, limit); got != want {
					t.Errorf("limit %d: got %d want %d", limit, got, want)
				}
			}
			if got := live.MaxExtendSteps([]Seq{0}, 10); got != 0 {
				t.Errorf("invalid handle: got %d want 0", got)
			}
			if got := live.MaxExtendSteps(handles, 0); got != 0 {
				t.Errorf("limit 0: got %d want 0", got)
			}
		})
	}
}

func TestMonolithicMaxExtendSteps(t *testing.T) {
	build := func() Allocator {
		a, err := NewMonolithic(256, 1024, 10*256*1024)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	tokens := []int{200, 250, 100}
	live := build()
	handles := allocAll(t, live, tokens)
	for _, limit := range []int{1, 6, 7, 100} {
		want := bruteMaxSteps(t, build, tokens, limit)
		if got := live.MaxExtendSteps(handles, limit); got != want {
			t.Errorf("limit %d: got %d want %d", limit, got, want)
		}
	}
	if got := live.MaxExtendSteps([]Seq{0}, 5); got != 0 {
		t.Errorf("invalid handle: got %d want 0", got)
	}
}

func TestPrefixPagedMaxExtendSteps(t *testing.T) {
	const blockTokens, prefixTokens, bytesPerToken = 16, 64, 1024.0
	build := func() Allocator {
		a, err := NewPrefixPaged(blockTokens, prefixTokens, bytesPerToken, 30*blockTokens*bytesPerToken)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	tokens := []int{80, 100, 65}
	live := build()
	handles := allocAll(t, live, tokens)
	for _, limit := range []int{1, 10, 100, 400} {
		want := bruteMaxSteps(t, build, tokens, limit)
		if got := live.MaxExtendSteps(handles, limit); got != want {
			t.Errorf("limit %d: got %d want %d", limit, got, want)
		}
	}
	if got := live.MaxExtendSteps([]Seq{0}, 10); got != 0 {
		t.Errorf("invalid handle: got %d want 0", got)
	}
}

// TestMaxExtendStepsDoesNotMutate runs the query and checks the
// allocator still extends exactly as far as predicted.
func TestMaxExtendStepsDoesNotMutate(t *testing.T) {
	a, err := NewPaged(16, 1024, 20*16*1024)
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	before := a.UsedBytes()
	k := a.MaxExtendSteps([]Seq{s}, 1000)
	if a.UsedBytes() != before {
		t.Fatal("MaxExtendSteps mutated the allocator")
	}
	if err := a.Extend(s, 100+k); err != nil {
		t.Fatalf("predicted %d steps but extend failed: %v", k, err)
	}
	if err := a.Extend(s, 100+k+16); err == nil {
		t.Error("a full block past the bound must fail")
	}
}

// TestMaxExtendStepsFastPathMatchesSearch checks the free-block fast
// path against the search it skips, over random allocator states after
// alloc/extend/free churn on Paged and PrefixPaged pools: every query
// returns the largest k ≤ limit whose block demand fits (found here by
// a linear scan of the allocator's own state), and a query naming a
// freed handle returns 0. Both the fast path and the search must be
// taken.
func TestMaxExtendStepsFastPathMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 2))
	fast, searched := 0, 0
	for trial := 0; trial < 400; trial++ {
		blockTokens := []int{1, 8, 16, 32}[rng.IntN(4)]
		capBlocks := 20 + rng.IntN(600)
		prefix := -1 // plain Paged
		if trial%2 == 1 {
			prefix = rng.IntN(4 * blockTokens)
		}
		var (
			a      Allocator
			table  *seqTable
			blocks func(tokens int) int // the growable blocks a sequence of tokens holds
			free   func() int
		)
		if prefix < 0 {
			p, err := NewPaged(blockTokens, 1, float64(capBlocks*blockTokens))
			if err != nil {
				t.Fatal(err)
			}
			a, table, blocks, free = p, &p.table, p.blocksFor, func() int { return p.freeBlocks }
		} else {
			p, err := NewPrefixPaged(blockTokens, prefix, 1, float64(capBlocks*blockTokens))
			if err != nil {
				t.Fatal(err)
			}
			a, table, blocks, free = p, &p.table, p.blocksFor, func() int { return p.freeBlocks }
		}
		tokens := func(s Seq) int { return table.tokens[table.lookup(s)] }
		// Churn: allocate, grow and free sequences at random.
		var live, dead []Seq
		for op := 0; op < 60; op++ {
			switch r := rng.IntN(10); {
			case r < 5:
				if s, err := a.Alloc(1 + rng.IntN(8*blockTokens+prefix+1)); err == nil {
					live = append(live, s)
				}
			case r < 8 && len(live) > 0:
				s := live[rng.IntN(len(live))]
				_ = a.Extend(s, tokens(s)+rng.IntN(3*blockTokens)) // may run out of blocks
			case len(live) > 0:
				i := rng.IntN(len(live))
				a.Free(live[i])
				dead = append(dead, live[i])
				live = append(live[:i], live[i+1:]...)
			}
		}
		if len(live) == 0 {
			continue
		}
		seqs := make([]Seq, 0, len(live))
		for _, s := range live {
			if rng.IntN(3) > 0 {
				seqs = append(seqs, s)
			}
		}
		if len(seqs) == 0 {
			seqs = append(seqs, live[0])
		}
		limit := rng.IntN(4 * capBlocks * blockTokens / len(seqs))
		// The reference: the largest k ≤ limit whose demand fits.
		want := 0
		for k := 1; k <= limit; k++ {
			demand := 0
			for _, s := range seqs {
				tok := tokens(s)
				demand += blocks(tok+k) - blocks(tok)
			}
			if demand > free() {
				break
			}
			want = k
		}
		if got := a.MaxExtendSteps(seqs, limit); got != want {
			t.Fatalf("trial %d (block %d, prefix %d, %d free, seqs %v, limit %d): got %d, want %d",
				trial, blockTokens, prefix, free(), seqs, limit, got, want)
		}
		if limit > 0 {
			if fitsWhole(len(seqs), limit, blockTokens, free()) {
				fast++
			} else {
				searched++
			}
		}
		if len(dead) > 0 {
			stale := append(seqs[:len(seqs):len(seqs)], dead[rng.IntN(len(dead))])
			if got := a.MaxExtendSteps(stale, max(limit, 1)); got != 0 {
				t.Fatalf("trial %d: a freed handle gave %d steps, want 0", trial, got)
			}
		}
	}
	if fast == 0 || searched == 0 {
		t.Errorf("fast path taken %d times, search %d times; want both", fast, searched)
	}
}
