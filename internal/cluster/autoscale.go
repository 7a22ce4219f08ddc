package cluster

// Autoscaling extends the cluster simulator with dynamic capacity:
// replicas are added when queues build and retired when they sit
// idle — the operational layer a production deployment puts on top of
// the per-accelerator numbers this benchmark produces. The policy is
// a scale-tick event handler on the shared kernel (internal/des):
// ticks fire immediately before each arrival, and a coalesced window
// changes nothing the handler reads before its last step, so the
// scaling trajectory is byte-identical between the coalesced and
// stepped paths.

import (
	"errors"
	"fmt"
	"slices"

	"llmbench/internal/des"
)

// Autoscale configures dynamic replica management (Config.Autoscale).
// The fleet starts as Config.Replicas, whose size is also the floor
// scale-downs never cross, and routes least-loaded.
type Autoscale struct {
	// Factory builds a fresh replica (engine + KV allocator) for each
	// scale-up. A run may build more than Max replicas over its
	// lifetime: a retired replica is never revived.
	Factory func() (Replica, error)
	// Max bounds the live replica count; it must be at least
	// len(Config.Replicas).
	Max int
	// UpOutstanding: scale up when mean outstanding requests per
	// active replica exceeds this. A replica is retired when it is
	// empty and the remaining replicas would still run at under half
	// this threshold.
	UpOutstanding int
}

// The minimum spacings between scale-ups and between scale-downs: a
// replica joins at most once a second, and one retires at most once
// per 3 s.
const (
	scaleUpCooldownS  = 1.0
	scaleDownSpacingS = 3.0
)

// validate checks the autoscaler against the fleet it starts from.
func (a *Autoscale) validate(cfg *Config) error {
	switch {
	case a.Factory == nil:
		return errors.New("cluster: autoscale needs a replica factory")
	case a.Max < len(cfg.Replicas):
		return fmt.Errorf("cluster: autoscale Max %d is below the initial fleet of %d", a.Max, len(cfg.Replicas))
	case a.UpOutstanding < 1:
		return errors.New("cluster: UpOutstanding must be ≥ 1")
	case cfg.PrefillReplicas > 0:
		return errors.New("cluster: autoscaling does not compose with disaggregation (pool splits are fixed)")
	case cfg.Policy != LeastLoaded:
		return fmt.Errorf("cluster: autoscaling routes least-loaded; policy %v is not supported", cfg.Policy)
	}
	return nil
}

// ScaleEvent records a capacity change.
type ScaleEvent struct {
	TimeS    float64
	Replicas int
	Up       bool
}

// scaler is one run's autoscaler state: the scale tick and the
// least-loaded router over the live stations.
type scaler struct {
	as     Autoscale
	k      *des.Kernel
	floor  int
	events []ScaleEvent
	peak   int
	// live holds the IDs of the unretired stations in creation order:
	// the router and the scale tick scan their gauges over it.
	live                       []int
	lastScaleUp, lastScaleDown float64
}

// installScaler makes the kernel's fleet dynamic, starting from the
// stations already on it: it registers the scale-tick handler and the
// router, and returns the state the run's Stats read afterwards.
func installScaler(k *des.Kernel, as Autoscale, stations []*des.Station) *scaler {
	sc := &scaler{as: as, k: k, floor: len(stations), peak: len(stations), lastScaleUp: -1e18, lastScaleDown: -1e18}
	for _, s := range stations {
		sc.live = append(sc.live, s.ID)
	}
	k.ScaleTick = sc.tick
	k.Route = func(float64) *des.Station { return k.Stations()[sc.live[pickLeast(k.Gauges(), sc.live)]] }
	return sc
}

// tick is the scale-tick handler: fired by the kernel immediately
// before each arrival is routed, after every replica event before the
// arrival instant.
func (sc *scaler) tick(now float64) error {
	k, as := sc.k, &sc.as
	// Scale up on queue pressure.
	g := k.Gauges()
	outstanding := 0
	for _, id := range sc.live {
		outstanding += g[id].Load
	}
	act := len(sc.live)
	if act < as.Max && now-sc.lastScaleUp >= scaleUpCooldownS &&
		outstanding > as.UpOutstanding*act {
		rep, err := as.Factory()
		if err != nil {
			return err
		}
		if rep.Engine == nil || rep.Alloc == nil {
			return errors.New("cluster: factory produced an incomplete replica")
		}
		sc.live = append(sc.live, k.NewStation(rep.Engine, rep.Alloc).ID)
		sc.events = append(sc.events, ScaleEvent{TimeS: now, Replicas: len(sc.live), Up: true})
		sc.peak = max(sc.peak, len(sc.live))
		sc.lastScaleUp = now
	}
	// Retire one empty replica when the rest run comfortably.
	if act > sc.floor && now-sc.lastScaleDown >= scaleDownSpacingS &&
		outstanding <= as.UpOutstanding*(act-1)/2 {
		g = k.Gauges() // a scale-up may have grown it
		for i, id := range sc.live {
			if g[id].Load == 0 {
				sc.live = slices.Delete(sc.live, i, i+1)
				sc.lastScaleDown = now
				sc.events = append(sc.events, ScaleEvent{TimeS: now, Replicas: len(sc.live), Up: false})
				break
			}
		}
	}
	return nil
}
