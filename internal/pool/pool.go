// Package pool provides the concurrency substrate for sweep and
// report fan-outs: a bounded worker pool whose results are ordered by
// submission index (never by completion), and a concurrency-safe
// build-once cache for expensive immutable values such as engines.
//
// Determinism is the design constraint. The paper-anchor artifacts
// (`llmbench report` tables, per-figure CSVs) must be byte-identical
// whether regenerated serially or at full parallelism, so Map writes
// each result into its submission slot and error selection is by
// lowest index, not by which worker failed first.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Clamp normalises a parallelism request: values below 1 mean "use
// every available core" (GOMAXPROCS), and the worker count never
// exceeds the number of work items.
func Clamp(parallelism, n int) int {
	if parallelism < 1 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism < 1 {
		parallelism = 1
	}
	return parallelism
}

// Map runs fn(i) for every i in [0, n) on at most parallelism
// workers and returns the results ordered by index. The returned
// error is the one with the lowest index, identical at any
// parallelism. After the first observed failure no further items are
// dispatched (their result slots stay zero), but items dispatched
// earlier always finish — dispatch is in index order, so every index
// below the lowest failure is guaranteed to have run, which is what
// keeps the error choice and any results-before-the-failure
// deterministic. parallelism < 1 means GOMAXPROCS.
func Map[T any](n, parallelism int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	errs := make([]error, n)
	workers := Clamp(parallelism, n)
	if workers == 1 {
		// Serial fast path: no goroutines, no channel traffic.
		for i := 0; i < n; i++ {
			out[i], errs[i] = fn(i)
			if errs[i] != nil {
				break
			}
		}
		return out, firstError(errs)
	}
	var wg sync.WaitGroup
	var aborted atomic.Bool
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i], errs[i] = fn(i)
				if errs[i] != nil {
					aborted.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		if aborted.Load() {
			break
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return out, firstError(errs)
}

// ForEach is Map without results: run fn(i) for every index, return
// the lowest-index error.
func ForEach(n, parallelism int, fn func(i int) error) error {
	_, err := Map(n, parallelism, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Cache memoises expensive immutable values under comparable keys
// with build-once (singleflight) semantics: concurrent callers of the
// same key block on a single build instead of duplicating it.
// Successful values are cached forever; failed builds are not cached,
// so a later call retries.
//
// The zero value is ready to use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*cacheEntry[V]
}

type cacheEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// Get returns the cached value for key, building it with build on
// first use. Concurrent Gets of one key run build exactly once.
func (c *Cache[K, V]) Get(key K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[K]*cacheEntry[V])
	}
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry[V]{}
		c.entries[key] = e
	}
	c.mu.Unlock()

	e.once.Do(func() { e.val, e.err = build() })
	if e.err != nil {
		// Do not pin failures: drop the entry so a future Get retries.
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	return e.val, e.err
}

// Len reports how many values are currently cached.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
