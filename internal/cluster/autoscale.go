package cluster

// Autoscaling extends the cluster simulator with dynamic capacity:
// replicas are added when queues build and retired when they sit
// idle — the operational layer a production deployment puts on top of
// the per-accelerator numbers this benchmark produces. The policy is
// a scale-tick event handler on the shared kernel (internal/des):
// ticks fire immediately before each arrival, and a coalesced window
// changes nothing the handler reads before its last step, so the
// scaling trajectory is byte-identical between the coalesced,
// stepped, serial, and parallel paths.

import (
	"errors"
	"fmt"

	"llmbench/internal/des"
	"llmbench/internal/workload"
)

// Autoscale configures dynamic replica management.
type Autoscale struct {
	// Factory builds a fresh replica (engine + KV allocator).
	Factory func() (Replica, error)
	// Min and Max bound the replica count.
	Min, Max int
	// UpOutstanding: scale up when mean outstanding requests per
	// active replica exceeds this.
	UpOutstanding int
	// DownIdleS is the minimum spacing between scale-downs; a replica
	// is retired when it is empty and the remaining replicas would
	// still run at under half the scale-up threshold.
	DownIdleS float64
	// CooldownS is the minimum spacing between scale-ups.
	CooldownS float64
}

func (a *Autoscale) validate() error {
	switch {
	case a.Factory == nil:
		return errors.New("cluster: autoscale needs a replica factory")
	case a.Min < 1 || a.Max < a.Min:
		return fmt.Errorf("cluster: bad autoscale bounds [%d, %d]", a.Min, a.Max)
	case a.UpOutstanding < 1:
		return errors.New("cluster: UpOutstanding must be ≥ 1")
	case a.DownIdleS <= 0 || a.CooldownS < 0:
		return errors.New("cluster: non-positive idle/cooldown times")
	}
	return nil
}

// ScaleEvent records a capacity change.
type ScaleEvent struct {
	TimeS    float64
	Replicas int
	Up       bool
}

// AutoStats extends Stats with the scaling trajectory.
type AutoStats struct {
	Stats
	Events       []ScaleEvent
	PeakReplicas int
}

// ServeAutoscale runs the trace with dynamic capacity, starting from
// Min replicas.
func ServeAutoscale(cfg Config, as Autoscale, reqs []workload.Request) (AutoStats, error) {
	if err := as.validate(); err != nil {
		return AutoStats{}, err
	}
	if err := cfg.validate(reqs); err != nil {
		return AutoStats{}, err
	}
	var events []ScaleEvent
	peak := 0
	lastScaleUp := -1e18
	lastScaleDown := -1e18
	stats, err := run(cfg, reqs, func(k *des.Kernel) error {
		active := func() int {
			n := 0
			for _, s := range k.Stations() {
				if !s.Retired {
					n++
				}
			}
			return n
		}
		addReplica := func(now float64, initial bool) error {
			rep, err := as.Factory()
			if err != nil {
				return err
			}
			if rep.Engine == nil || rep.Alloc == nil {
				return errors.New("cluster: factory produced an incomplete replica")
			}
			k.NewStation(rep.Engine, rep.Alloc)
			if !initial {
				events = append(events, ScaleEvent{TimeS: now, Replicas: active(), Up: true})
			}
			if a := active(); a > peak {
				peak = a
			}
			return nil
		}
		for i := 0; i < as.Min; i++ {
			if err := addReplica(0, true); err != nil {
				return err
			}
		}
		peak = as.Min

		// The scale-tick handler: fired by the kernel immediately before
		// each arrival is routed, with every replica synchronised at the
		// arrival barrier.
		k.ScaleTick = func(now float64) error {
			// Scale up on queue pressure.
			outstanding := 0
			for _, s := range k.Stations() {
				if !s.Retired {
					outstanding += s.Outstanding()
				}
			}
			act := active()
			if act < as.Max && now-lastScaleUp >= as.CooldownS &&
				outstanding > as.UpOutstanding*act {
				if err := addReplica(now, false); err != nil {
					return err
				}
				lastScaleUp = now
			}
			// Retire one empty replica when the rest run comfortably.
			if act > as.Min && now-lastScaleDown >= as.DownIdleS &&
				outstanding <= as.UpOutstanding*(act-1)/2 {
				for _, s := range k.Stations() {
					if !s.Retired && s.Outstanding() == 0 {
						s.Retired = true
						lastScaleDown = now
						events = append(events, ScaleEvent{TimeS: now, Replicas: active(), Up: false})
						break
					}
				}
			}
			return nil
		}
		k.Route = func(now float64) *des.Station {
			var best *des.Station
			for _, s := range k.Stations() {
				if s.Retired {
					continue
				}
				if best == nil || s.Outstanding() < best.Outstanding() {
					best = s
				}
			}
			return best
		}
		return nil
	})
	if err != nil {
		return AutoStats{}, err
	}
	return AutoStats{Stats: stats, Events: events, PeakReplicas: peak}, nil
}
