package des

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// scanLeast is the event a linear scan of the stations picks: the
// least (nextAt, ID), an idle station (nextAt < 0) counting as +Inf.
func scanLeast(at []float64) (float64, int) {
	best, bestAt := 0, math.Inf(1)
	for id, a := range at {
		if a < 0 {
			a = math.Inf(1)
		}
		if a < bestAt {
			best, bestAt = id, a
		}
	}
	return bestAt, best
}

// checkRoot fails t unless the tree keeps its invariants over the
// stations' nextAt values and its root is the scan's pick.
func checkRoot(t *testing.T, tree eventTree, at []float64, op string) {
	t.Helper()
	if err := checkTree(tree, len(at), func(id int) float64 { return at[id] }); err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	rAt, rID := tree.root()
	sAt, sID := scanLeast(at)
	if rID != sID || rAt != sAt {
		t.Fatalf("%s: root is station %d at %v, a scan finds station %d at %v", op, rID, rAt, sID, sAt)
	}
}

// TestEventTreeKeys drives the tree through random wake, re-key, run
// and idle sequences, with many stations tied at one key, the way the
// kernel does: every move of a station's nextAt is followed by one set.
// Stations join one by one as it runs, so the tree grows past 8, 16 and
// 32 leaves mid-sequence. After every operation each internal node is
// the lesser of its children and the root is the least (nextAt, ID);
// draining the root until every station is idle visits them in
// (nextAt, ID) order.
func TestEventTreeKeys(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	key := func() float64 { return float64(rng.IntN(16)) / 2 }
	var tree eventTree
	var at []float64
	join := func() {
		at = append(at, -1)
		tree.grow(len(at))
	}
	for len(at) < 5 {
		join()
	}
	for op := 0; op < 20000; op++ {
		if op%400 == 399 && len(at) < 48 {
			join()
			checkRoot(t, tree, at, fmt.Sprintf("op %d: station %d joins", op, len(at)-1))
		}
		id := rng.IntN(len(at))
		switch {
		case at[id] < 0:
			// A delivery wakes an idle station.
			at[id] = key()
		case rng.IntN(2) == 0:
			// A cut or a lazy advance: the key moves either way.
			at[id] = key()
		default:
			// The root's event runs: it goes idle or schedules its next.
			_, id = tree.root()
			if at[id] < 0 {
				continue // every station is idle
			}
			if rng.IntN(2) == 0 {
				at[id] = -1
			} else {
				at[id] += float64(1+rng.IntN(4)) / 2
			}
		}
		tree.set(id, at[id])
		checkRoot(t, tree, at, fmt.Sprintf("op %d", op))
	}
	if len(at) != 48 {
		t.Fatalf("%d stations joined, want 48", len(at))
	}
	prevAt, prevID := -1.0, -1
	for {
		a, id := tree.root()
		if math.IsInf(a, 1) {
			break
		}
		if a < prevAt || (a == prevAt && id < prevID) {
			t.Fatalf("drain ran (%v, %d) after (%v, %d)", a, id, prevAt, prevID)
		}
		prevAt, prevID = a, id
		at[id] = -1
		tree.set(id, -1)
		checkRoot(t, tree, at, "drain")
	}
}

// treeValues are the nextAt values FuzzEventTreeMatchesScan draws from:
// idle, both zeros, ties, the extremes of the finite range and +Inf.
var treeValues = []float64{-1, math.Copysign(0, -1), 0, 5e-324, 0.5, 1, 1, 2.5, 1e300, math.Inf(1)}

// FuzzEventTreeMatchesScan holds the tree's root to a linear scan of
// the stations after every set and every growth. Each byte pair is one
// operation: a station joins (idle, growing the tree), or one station's
// nextAt moves to a value from treeValues.
func FuzzEventTreeMatchesScan(f *testing.F) {
	f.Add([]byte{3, 0, 2, 1, 3, 2, 2})
	f.Add([]byte{1, 1, 1, 0, 1, 1, 6, 2, 5})
	f.Add([]byte{0, 0, 9, 0, 3, 0, 1, 0, 2, 0, 0})
	f.Add([]byte{31, 31, 5, 32, 0, 7, 6, 8, 4, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var tree eventTree
		at := make([]float64, 1+int(data[0])%40)
		for i := range at {
			at[i] = -1
		}
		tree.grow(len(at))
		for i := 1; i+1 < len(data); i += 2 {
			op := int(data[i]) % (len(at) + 1)
			if op == len(at) {
				if len(at) == 80 {
					continue
				}
				at = append(at, -1)
				tree.grow(len(at))
			} else {
				at[op] = treeValues[int(data[i+1])%len(treeValues)]
				tree.set(op, at[op])
			}
			checkRoot(t, tree, at, fmt.Sprintf("byte %d", i))
		}
	})
}

// BenchmarkEventTree times one set, the cost of one event, one lazy
// re-key or one delivery in the kernel, on fleets of 16 stations
// (prefix-fleet), 32 (chat-day) and 1024.
func BenchmarkEventTree(b *testing.B) {
	for _, n := range []int{16, 32, 1024} {
		b.Run(fmt.Sprintf("stations=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(5, uint64(n)))
			var tree eventTree
			tree.grow(n)
			for id := range n {
				tree.set(id, rng.Float64())
			}
			type move struct {
				id int
				at float64
			}
			moves := make([]move, 4096)
			for i := range moves {
				moves[i] = move{rng.IntN(n), rng.Float64()}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := moves[i&(len(moves)-1)]
				tree.set(m.id, m.at)
			}
		})
	}
}
