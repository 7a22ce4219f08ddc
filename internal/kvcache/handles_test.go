package kvcache

// Cross-allocator contract suites. Every Allocator in the package —
// Paged, Monolithic, PrefixPaged, and the Tiered wrapper — must agree
// on two behaviours the serving kernel (internal/des) leans on:
//
//   - CanAlloc(n) == true ⇔ an immediate Alloc(n) succeeds: admission
//     decisions and allocations price through the same arithmetic, so
//     a station can never admit a request its allocator then rejects.
//   - Dead handles are inert: double Free is a no-op that perturbs no
//     accounting, Extend after Free errors, and a handle minted by a
//     different allocator instance is rejected rather than aliased.

import (
	"math/rand"
	"testing"
)

// allocatorCase builds a fresh allocator plus an opaque accounting
// snapshot used to prove abuse left no trace. Snapshots reach into
// allocator internals (freeBlocks/slackTokens/live) on purpose:
// the public UsedBytes/WasteBytes views round through float64 and
// could mask a one-block leak.
type allocatorCase struct {
	name     string
	build    func(t *testing.T) Allocator
	snapshot func(a Allocator) [4]int
}

func allocatorCases() []allocatorCase {
	return []allocatorCase{
		{
			name: "paged",
			build: func(t *testing.T) Allocator {
				t.Helper()
				p, err := NewPaged(16, 1, 16*64)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			snapshot: func(a Allocator) [4]int {
				p := a.(*Paged)
				return [4]int{p.freeBlocks, p.slackTokens(), p.table.live, 0}
			},
		},
		{
			name: "monolithic",
			build: func(t *testing.T) Allocator {
				t.Helper()
				m, err := NewMonolithic(256, 1, 256*16)
				if err != nil {
					t.Fatal(err)
				}
				return m
			},
			snapshot: func(a Allocator) [4]int {
				m := a.(*Monolithic)
				return [4]int{m.writtenTokens, m.table.live, 0, 0}
			},
		},
		{
			name: "prefixpaged",
			build: func(t *testing.T) Allocator {
				t.Helper()
				p, err := NewPrefixPaged(16, 64, 1, 16*64)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			snapshot: func(a Allocator) [4]int {
				p := a.(*PrefixPaged)
				return [4]int{p.freeBlocks, p.slackTokens(), p.table.live, 0}
			},
		},
		{
			name: "tiered",
			build: func(t *testing.T) Allocator {
				t.Helper()
				gpu, err := NewPrefixPaged(16, 64, 1, 16*64)
				if err != nil {
					t.Fatal(err)
				}
				tv, err := NewTiered(gpu, 16*8, HostLink{GBPerS: 32, LatencyS: 5e-6})
				if err != nil {
					t.Fatal(err)
				}
				return tv
			},
			snapshot: func(a Allocator) [4]int {
				tv := a.(*Tiered)
				host := 0
				if tv.onHost {
					host = 1
				}
				return [4]int{tv.gpu.freeBlocks, tv.gpu.slackTokens(), tv.gpu.table.live, host}
			},
		},
	}
}

// TestCanAllocAllocAgree churns each allocator through seeded random
// alloc/free traffic and checks, at every step, that CanAlloc's
// verdict matches what Alloc then does. The mix crosses the capacity
// boundary from both sides so both verdicts are exercised.
func TestCanAllocAllocAgree(t *testing.T) {
	for _, tc := range allocatorCases() {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.build(t)
			rng := rand.New(rand.NewSource(42))
			var live []Seq
			admitted, refused := 0, 0
			for step := 0; step < 2000; step++ {
				if rng.Intn(3) == 0 && len(live) > 0 {
					i := rng.Intn(len(live))
					a.Free(live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
				n := 1 + rng.Intn(200)
				can := a.CanAlloc(n)
				seq, err := a.Alloc(n)
				switch {
				case can && err != nil:
					t.Fatalf("step %d: CanAlloc(%d) promised room, Alloc failed: %v", step, n, err)
				case !can && err == nil:
					t.Fatalf("step %d: CanAlloc(%d) refused, Alloc succeeded", step, n)
				case err == nil:
					live = append(live, seq)
					admitted++
				default:
					refused++
				}
			}
			if admitted == 0 || refused == 0 {
				t.Fatalf("mix never crossed capacity (admitted %d, refused %d): the property was not exercised", admitted, refused)
			}
			for _, s := range live {
				a.Free(s)
			}
		})
	}
}

// TestStaleHandleAbuse runs the dead-handle gauntlet over every
// allocator: double Free, Extend after Free, and handles from a
// foreign allocator instance must all bounce off the generation guard
// without touching live accounting.
func TestStaleHandleAbuse(t *testing.T) {
	for _, tc := range allocatorCases() {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.build(t)
			keep := mustAlloc(t, a, 100)
			dead := mustAlloc(t, a, 80)
			a.Free(dead)

			base := tc.snapshot(a)
			a.Free(dead) // double free
			if got := tc.snapshot(a); got != base {
				t.Errorf("double free moved accounting %v -> %v", base, got)
			}
			if err := a.Extend(dead, 200); err == nil {
				t.Error("Extend after Free must error")
			}
			if got := tc.snapshot(a); got != base {
				t.Error("failed Extend must not move accounting")
			}
			if got := a.MaxExtendSteps([]Seq{keep, dead}, 8); got != 0 {
				t.Errorf("dead handle in MaxExtendSteps: got %d, want 0", got)
			}

			// Handles minted by a different instance: slots this
			// allocator never created resolve to nothing.
			foreign := tc.build(t)
			var fseq Seq
			for i := 0; i < 4; i++ {
				fseq = mustAlloc(t, foreign, 50)
			}
			if err := a.Extend(fseq, 60); err == nil {
				t.Error("foreign handle must not extend")
			}
			a.Free(fseq)
			if got := tc.snapshot(a); got != base {
				t.Errorf("foreign free moved accounting %v -> %v", base, got)
			}

			if err := a.Extend(keep, 128); err != nil {
				t.Errorf("live handle must stay usable after the gauntlet: %v", err)
			}
			a.Free(keep)
		})
	}
}
