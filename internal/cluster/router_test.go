package cluster

// Router equivalence: the routers pick from the kernel's dense
// per-station gauges (des.Kernel.Gauges). These tests hold the dense
// pickers to the station scans they replaced, kept here verbatim over
// stand-in stations, on random gauge vectors full of ties.

import (
	"math/rand/v2"
	"testing"

	"llmbench/internal/des"
)

// scanStation stands in for a des.Station as the replaced scans read
// it: its outstanding count, its prefill backlog, its allocator's
// prefix view (nil when the allocator has none) and its retired flag.
type scanStation struct {
	out, pending int
	view         prefixStater
	Retired      bool
}

func (s *scanStation) Outstanding() int          { return s.out }
func (s *scanStation) PendingPrefillTokens() int { return s.pending }

// prefixStater is the allocator view the replaced prefix scan asserted
// on each station's allocator.
type prefixStater interface {
	HotPrefixTokens() int
	RestorablePrefixTokens() int
}

type scanView struct{ hot, restorable int }

func (v scanView) HotPrefixTokens() int        { return v.hot }
func (v scanView) RestorablePrefixTokens() int { return v.restorable }

// scanPrefix is the replaced prefix router's pick, verbatim but for the
// station type: two passes over the group's stations, the first for the
// minimum outstanding count, the second scoring each station in the
// load window through its allocator's view.
func scanPrefix(group []*scanStation, slack int) int {
	staters := make([]prefixStater, len(group))
	for i, s := range group {
		staters[i] = s.view
	}
	minOut := group[0].Outstanding()
	for _, s := range group[1:] {
		if o := s.Outstanding(); o < minOut {
			minOut = o
		}
	}
	best, bestScore, bestLoad := -1, -1, 0
	for i, s := range group {
		o := s.Outstanding()
		if o > minOut+slack {
			continue
		}
		score := 0
		if st := staters[i]; st != nil {
			hot := st.HotPrefixTokens()
			if hot > 0 && 2*s.PendingPrefillTokens() >= hot {
				hot = 0
			}
			score = 2*hot + st.RestorablePrefixTokens()
		}
		if best < 0 || score > bestScore || (score == bestScore && o < bestLoad) {
			best, bestScore, bestLoad = i, score, o
		}
	}
	return best
}

// scanLeast is the replaced least-loaded scan, verbatim but for the
// station type: the first live station with the fewest outstanding
// requests, -1 when every station is retired.
func scanLeast(group []*scanStation) int {
	best, bestLoad := -1, 0
	for i, s := range group {
		if s.Retired {
			continue
		}
		if o := s.Outstanding(); best < 0 || o < bestLoad {
			best, bestLoad = i, o
		}
	}
	return best
}

// fleetFrom decodes a fleet from fuzz bytes, four per station: the
// load (0–7, so ties are common), whether the allocator has a prefix
// view and whether the station is in the routed group, the hot and
// restorable prefix tokens (0, 512 or 1024 each), and the prefill
// backlog (0–1020 in steps of 4, so it can equal half a hot count). It returns every station's gauge as
// the kernel keeps it — the prefix fields zero without a view — the
// routed group's station IDs in creation order, and the same group
// as stand-in stations.
func fleetFrom(data []byte) ([]des.Gauge, []int, []*scanStation) {
	var g []des.Gauge
	var ids []int
	var group []*scanStation
	for ; len(data) >= 4 && len(g) < 32; data = data[4:] {
		s := &scanStation{out: int(data[0] % 8), pending: 4 * int(data[3])}
		x := des.Gauge{Load: s.out}
		if data[1]&1 != 0 {
			v := scanView{hot: 512 * int(data[2]%3), restorable: 512 * int(data[2]/3%3)}
			s.view = v
			x.Hot, x.Restorable, x.Pending = v.hot, v.restorable, s.pending
		}
		if data[1]&2 == 0 {
			ids = append(ids, len(g))
			group = append(group, s)
		}
		g = append(g, x)
	}
	return g, ids, group
}

func FuzzPrefixRouterMatchesScan(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0}, uint8(1))               // identical warm stations
	f.Add([]byte{3, 1, 4, 0, 1, 1, 1, 250, 1, 0, 0, 0, 2, 3, 2, 9}, uint8(2)) // establishing, restorable, cold, outside
	f.Add([]byte{7, 1, 1, 0, 0, 0, 0, 0, 1, 1, 3, 0, 0, 1, 8, 100}, uint8(0)) // slack 0 and a load window of one
	f.Add([]byte{2, 1, 1, 64, 2, 1, 3, 0, 2, 1, 1, 63}, uint8(8))             // backlog on both sides of half the hot count
	f.Fuzz(func(t *testing.T, data []byte, slack uint8) {
		g, ids, group := fleetFrom(data)
		if len(ids) == 0 {
			return
		}
		if got, want := pickPrefix(g, ids, int(slack%9)), scanPrefix(group, int(slack%9)); got != want {
			t.Fatalf("slack %d: dense picker chose %d, the station scan %d (gauges %+v, group %v)",
				slack%9, got, want, g, ids)
		}
		if got, want := pickLeast(g, ids), scanLeast(group); got != want {
			t.Fatalf("least-loaded: dense picker chose %d, the station scan %d (gauges %+v, group %v)", got, want, g, ids)
		}
	})
}

// TestLeastLoadedMatchesScan holds the least-loaded picker to the
// replaced scan on random fleets with retired stations, as the
// autoscaler routes them: the scan walks every station and skips the
// retired ones, the picker walks the live IDs only.
func TestLeastLoadedMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 1))
	for trial := range 20000 {
		n := 1 + rng.IntN(40)
		g := make([]des.Gauge, n)
		group := make([]*scanStation, n)
		var live []int
		for i := range group {
			group[i] = &scanStation{out: rng.IntN(6), Retired: rng.IntN(3) == 0}
			if !group[i].Retired {
				g[i].Load = group[i].out
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			continue
		}
		if got, want := live[pickLeast(g, live)], scanLeast(group); got != want {
			t.Fatalf("trial %d: dense picker chose station %d, the station scan %d", trial, got, want)
		}
	}
}

// BenchmarkPickPrefix times the prefix router's pick, in ns per
// arrival, over 1024 gauge vectors of a 16-station tiered fleet like
// the benchmark's prefix-fleet: loads 8–19 around a batch cap of 32
// (slack 8), most stations hot on an 8016-token prefix, some restorable
// or establishing. Cycling the vectors keeps the branch predictor from
// learning one pick.
func BenchmarkPickPrefix(b *testing.B) {
	const stations, vectors = 16, 1024
	rng := rand.New(rand.NewPCG(16, 8016))
	gs := make([][]des.Gauge, vectors)
	for v := range gs {
		g := make([]des.Gauge, stations)
		for i := range g {
			g[i].Load = 8 + rng.IntN(12)
			switch rng.IntN(8) {
			case 0:
				g[i].Restorable = 8016
			case 1:
				g[i].Hot, g[i].Pending = 8016, 8016+rng.IntN(512)
			default:
				g[i].Hot, g[i].Pending = 8016, rng.IntN(1024)
			}
		}
		gs[v] = g
	}
	ids := make([]int, stations)
	for i := range ids {
		ids[i] = i
	}
	b.ResetTimer()
	sum := 0
	for n := range b.N {
		sum += pickPrefix(gs[n%vectors], ids, 8)
	}
	if sum < 0 {
		b.Fatal(sum)
	}
}

// BenchmarkPickLeast times the least-loaded pick, in ns per arrival,
// over 1024 load vectors of a 32-station fleet like the benchmark's
// chat-day (loads 0–7).
func BenchmarkPickLeast(b *testing.B) {
	const stations, vectors = 32, 1024
	rng := rand.New(rand.NewPCG(32, 200))
	gs := make([][]des.Gauge, vectors)
	for v := range gs {
		gs[v] = make([]des.Gauge, stations)
		for i := range gs[v] {
			gs[v][i].Load = rng.IntN(8)
		}
	}
	ids := make([]int, stations)
	for i := range ids {
		ids[i] = i
	}
	b.ResetTimer()
	sum := 0
	for n := range b.N {
		sum += pickLeast(gs[n%vectors], ids)
	}
	if sum < 0 {
		b.Fatal(sum)
	}
}
