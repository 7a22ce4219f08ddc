package des

import (
	"fmt"
	"testing"

	"llmbench/internal/engine"
	"llmbench/internal/kvcache"
)

// CoalesceWindow bounds and prices one coalesced window the way a
// station opens it (windowSteps, then one DecodeStepVec call), for the
// window-bound tests. An empty result means no window opens.
func CoalesceWindow(eng *engine.Engine, alloc kvcache.Allocator, seqs []kvcache.Seq,
	batch, ctx0, kMax int) ([]float64, error) {
	k := windowSteps(alloc, seqs, kMax)
	if k == 0 {
		return nil, nil
	}
	v, err := eng.DecodeStepVec(batch, ctx0, k)
	return v.Seconds, err
}

// GaugeAudit reports what the gauge oracle saw: how many checks ran,
// and whether any check found a station with a nonzero hot, restorable
// or pending gauge (so a test can tell the oracle was not vacuous).
type GaugeAudit struct {
	Checks                   int
	Hot, Restorable, Pending bool
}

// AuditGauges installs the gauge oracle on k: after every station
// event and every delivery, each station's gauge must equal what it
// summarises, recounted from the station itself, and the event tree
// must hold every station's nextAt (checkTree). Load is Outstanding;
// the station's prefill backlog counter is a scan of its running
// set's pendingPrefill; and on a station whose allocator has a prefix
// view, Hot and Restorable are the allocator's own answers and
// Pending is that scan, while every other station's prefix fields
// stay zero. The first mismatch is reported to tb and ends the audit.
func AuditGauges(k *Kernel, tb testing.TB) *GaugeAudit {
	a := &GaugeAudit{}
	k.audit = func() {
		a.Checks++
		if len(k.gauges) != len(k.stations) {
			tb.Errorf("check %d: %d gauges for %d stations", a.Checks, len(k.gauges), len(k.stations))
			k.audit = nil
			return
		}
		for _, s := range k.stations {
			g := k.gauges[s.ID]
			scan := 0
			for _, r := range s.run {
				scan += r.pendingPrefill
			}
			want := Gauge{Load: s.Outstanding()}
			if pv, ok := s.Alloc.(prefixView); ok {
				want.Hot, want.Restorable, want.Pending = pv.HotPrefixTokens(), pv.RestorablePrefixTokens(), scan
			}
			if g != want || s.PendingPrefillTokens() != scan {
				tb.Errorf("check %d: station %d gauge %+v and backlog counter %d; want %+v and %d",
					a.Checks, s.ID, g, s.PendingPrefillTokens(), want, scan)
				k.audit = nil
				return
			}
			a.Hot = a.Hot || g.Hot > 0
			a.Restorable = a.Restorable || g.Restorable > 0
			a.Pending = a.Pending || g.Pending > 0
		}
		if err := checkTree(k.tree, len(k.stations), func(id int) float64 { return k.stations[id].nextAt }); err != nil {
			tb.Errorf("check %d: %v", a.Checks, err)
			k.audit = nil
		}
	}
	return a
}

// checkTree reports the first way t fails to be the event tree of n
// stations whose nextAt values are at(id): the leaf count is a power
// of two holding every station; station id's leaf is (treeKey(at(id)),
// id) and every other leaf is idle; and every internal node is the
// lesser of its children, the left one on a tie.
func checkTree(t eventTree, n int, at func(id int) float64) error {
	l := len(t) / 2
	if l < n || l&(l-1) != 0 || len(t) != 2*l {
		return fmt.Errorf("event tree of %d nodes for %d stations", len(t), n)
	}
	for id := 0; id < l; id++ {
		want := treeNode{idleKey, id}
		if id < n {
			want.k = treeKey(at(id))
		}
		if t[l+id] != want {
			return fmt.Errorf("event tree leaf %d is %+v, want %+v", id, t[l+id], want)
		}
	}
	for i := 1; i < l; i++ {
		if want := winner(t[2*i], t[2*i+1]); t[i] != want {
			return fmt.Errorf("event tree node %d is %+v, its children's winner %+v", i, t[i], want)
		}
	}
	return nil
}
