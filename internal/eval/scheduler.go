package eval

// The concurrent evaluation scheduler. The protocol's (workload, strategy,
// build) matrix is embarrassingly parallel — every image.Build is a pure
// function of (program, options, seed) and every measured cold start owns a
// private osim.OS — so the harness fans the per-build work of every
// measurement out across a bounded worker pool and collapses duplicate
// concurrent measurements with singleflight memoization.
//
// Determinism contract: results are bit-identical for every worker count
// and completion order. Build seeds stay derived from the build index,
// result slices are pre-sized and indexed by build (never appended in
// completion order), and errors are reported in matrix order, so
// Config.Workers only changes wall-clock time, never output bytes.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nimage/internal/workloads"
)

// flight is one in-progress memoized computation. Concurrent callers of the
// same key block on done instead of duplicating the (multi-second) work.
type flight struct {
	done chan struct{}
	err  error
}

// sched is the harness's worker pool and singleflight state.
type sched struct {
	mu       sync.Mutex
	inflight map[string]*flight

	semOnce sync.Once
	sem     chan struct{}

	// workNanos accumulates the wall-clock time spent inside scheduled
	// tasks; compared against real elapsed time it yields the achieved
	// parallel speedup.
	workNanos atomic.Int64
	// buildTasks counts executed build+measure tasks (tests assert that
	// singleflight never duplicates one).
	buildTasks atomic.Int64
	// profileRuns counts the profiling runs behind Harness.profile (tests
	// assert that each (workload, build, probe kind) is profiled once).
	profileRuns atomic.Int64
}

// Workers returns the effective worker-pool size: Config.Workers when
// positive, otherwise runtime.GOMAXPROCS(0).
func (h *Harness) Workers() int {
	if h.Cfg.Workers > 0 {
		return h.Cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// WorkDuration returns the cumulative wall-clock time spent inside
// scheduled build+measure tasks so far.
func (h *Harness) WorkDuration() time.Duration {
	return time.Duration(h.sched.workNanos.Load())
}

// slots returns the worker-slot semaphore, sized on first use so callers
// may set Cfg.Workers any time before the first measurement.
func (h *Harness) slots() chan struct{} {
	h.sched.semOnce.Do(func() {
		n := h.Workers()
		if n < 1 {
			n = 1
		}
		h.sched.sem = make(chan struct{}, n)
	})
	return h.sched.sem
}

// once collapses concurrent computations of the same memoization key: the
// first caller runs fn, every concurrent caller blocks until it finishes
// and shares its error. The entry is removed afterwards — results live in
// the harness caches, so later callers hit those, and failed computations
// may be retried.
func (h *Harness) once(key string, fn func() error) error {
	h.sched.mu.Lock()
	if h.sched.inflight == nil {
		h.sched.inflight = make(map[string]*flight)
	}
	if f, ok := h.sched.inflight[key]; ok {
		h.sched.mu.Unlock()
		<-f.done
		return f.err
	}
	f := &flight{done: make(chan struct{})}
	h.sched.inflight[key] = f
	h.sched.mu.Unlock()

	f.err = fn()

	h.sched.mu.Lock()
	delete(h.sched.inflight, key)
	h.sched.mu.Unlock()
	close(f.done)
	return f.err
}

// memo returns cache[key], computing it at most once: the first caller runs
// fn under the key's singleflight slot and stores its result, concurrent
// callers wait and share its error, and later callers read the cache. A
// failed computation stores nothing, so it may be retried. The key doubles
// as the singleflight key, so keys must be unique across every cache.
func memo[V any](h *Harness, cache map[string]V, key string, fn func() (V, error)) (V, error) {
	cached := func() (V, bool) {
		h.mu.Lock()
		defer h.mu.Unlock()
		v, ok := cache[key]
		return v, ok
	}
	if v, ok := cached(); ok {
		return v, nil
	}
	err := h.once(key, func() error {
		if _, ok := cached(); ok {
			return nil
		}
		v, err := fn()
		if err != nil {
			return err
		}
		h.mu.Lock()
		cache[key] = v
		h.mu.Unlock()
		return nil
	})
	v, _ := cached()
	return v, err
}

// task runs fn under a worker slot, accounting its wall time. Tasks must
// not schedule nested tasks (the slot would deadlock the pool at
// Workers=1); the harness only creates them at the build granularity.
func (h *Harness) task(fn func() error) error {
	sem := h.slots()
	sem <- struct{}{}
	defer func() { <-sem }()
	start := time.Now()
	defer func() { h.sched.workNanos.Add(time.Since(start).Nanoseconds()) }()
	return fn()
}

// forEach runs fn(0..n-1) as scheduler tasks and waits for all of them.
// Errors are collected per index and the lowest-index one is returned, so
// the reported error does not depend on completion order.
func (h *Harness) forEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return h.task(func() error { return fn(0) })
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = h.task(func() error { return fn(i) })
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Prefetch warms the measurement cache of every workload concurrently:
// LayoutBaseline first, then the given layouts. One lightweight
// coordinator goroutine per (workload, layout) pair enters the
// singleflight-guarded measurement, whose per-build tasks are throttled by
// the worker pool — so the effective unit of parallelism is the full
// (workload, layout, build) matrix. Table assembly afterwards is pure
// cache reads in deterministic order. The returned error is the
// matrix-order first error.
func (h *Harness) Prefetch(ws []workloads.Workload, strategies []string) error {
	layouts := append([]string{LayoutBaseline}, strategies...)
	errs := make([]error, len(ws)*len(layouts))
	var wg sync.WaitGroup
	for wi := range ws {
		for li := range layouts {
			w, l := ws[wi], layouts[li]
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				_, errs[slot] = h.MeasureStrategy(w, l)
			}(wi*len(layouts) + li)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
