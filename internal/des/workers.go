package des

import (
	"sync"
	"sync/atomic"
)

// stationWorkers is the kernel's persistent fan-out: Parallelism
// goroutines spawned once per Run and parked on per-worker start
// channels, instead of a fresh goroutine set per barrier (a
// million-request trace has a million barriers; spawn cost there
// dwarfs the work under dense arrivals). A barrier publishes its due
// list and time, signals the workers, and joins on a WaitGroup; the
// workers drain the list through a shared atomic cursor
// (work-stealing — due stations rarely carry equal work).
//
// Memory safety, not ordering, is the synchronisation concern:
// station advancement is order-independent (stations are disjoint
// between barriers), and every kernel→worker handoff is ordered by
// the channel send and every worker→kernel handoff by
// WaitGroup.Done/Wait, so all station state written during a barrier
// happens-before the kernel's next read. Results are byte-identical
// to the serial path by construction.
type stationWorkers struct {
	barrier  float64
	stations []*Station
	due      []int
	cursor   atomic.Int64

	start []chan struct{}
	join  sync.WaitGroup
	wg    sync.WaitGroup // tracks goroutine exit for stop
}

// startWorkers spawns n persistent workers. Called at most once per
// Run (kernels are single-use); stopWorkers must run before the
// kernel is released.
func (k *Kernel) startWorkers(n int) {
	w := &stationWorkers{start: make([]chan struct{}, n)}
	for i := range w.start {
		ch := make(chan struct{}, 1)
		w.start[i] = ch
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			for range ch {
				for {
					j := int(w.cursor.Add(1) - 1)
					if j >= len(w.due) {
						break
					}
					w.stations[w.due[j]].advance(w.barrier)
				}
				w.join.Done()
			}
		}()
	}
	k.workers = w
}

// run advances the kernel's due stations to the barrier on the
// workers and joins. Only called with len(due) ≥ 2.
func (w *stationWorkers) run(k *Kernel, barrier float64) {
	w.barrier = barrier
	w.stations = k.stations
	w.due = k.due
	w.cursor.Store(0)
	n := len(w.start)
	if len(w.due) < n {
		n = len(w.due) // idle workers would only pay signal latency
	}
	w.join.Add(n)
	for i := 0; i < n; i++ {
		w.start[i] <- struct{}{}
	}
	w.join.Wait()
}

// stopWorkers shuts the workers down and waits for them to exit, so
// no goroutine outlives Run (or touches a released kernel).
func (k *Kernel) stopWorkers() {
	w := k.workers
	if w == nil {
		return
	}
	for _, ch := range w.start {
		close(ch)
	}
	w.wg.Wait()
	k.workers = nil
}
