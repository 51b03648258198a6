// Package sched is the sharded parallel execution engine behind the
// experiment suite: a bounded worker pool that runs index-addressed shards
// (one per (app, window, variant) unit of work) plus a content-addressed
// memo cache (memo.go) that deduplicates the expensive
// profile→compile→simulate artifacts across experiments.
//
// Determinism contract: Map runs f over every index exactly once and waits
// for all of them; callers write results only to preallocated,
// index-addressed storage and perform any order-sensitive reduction (float
// accumulation, map merging) AFTER Map returns, iterating shards in index
// order. Under that contract the merged result is bit-identical for every
// worker count, including 1 — the property internal/exp's determinism
// regression test enforces for every experiment in the registry.
package sched

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"critics/internal/obs"
	"critics/internal/telemetry"
)

// Mapper is the shard execution abstraction: Map runs f(i) for every index
// in [0, n) and returns after all of them completed. *Pool is the local
// in-process implementation; internal/dist's Coordinator maps shards over a
// worker fleet. Every implementation must uphold the determinism contract in
// the package doc — each index runs exactly once (cancellation excepted, in
// which case the caller discards the partial results) and callers perform
// order-sensitive merges only after Map returns — so swapping one Mapper for
// another never changes results, only wall-clock.
type Mapper interface {
	Map(n int, f func(i int))
}

// Pool is a bounded worker pool. The zero value is not useful; construct
// with NewPool. Pools carry no state beyond the worker bound and optional
// observability/cancellation hooks, so they are cheap to create per call
// site.
type Pool struct {
	workers int
	name    string
	metrics *PoolMetrics
	ctx     context.Context
}

// NewPool returns a pool running at most workers goroutines. workers <= 0
// selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, name: "pool"}
}

// Named sets the pool's name, used for pprof goroutine labels and metric
// labels, and returns the pool for chaining.
func (p *Pool) Named(name string) *Pool {
	p.name = name
	return p
}

// Instrument attaches metrics (nil disables) and returns the pool for
// chaining.
func (p *Pool) Instrument(m *PoolMetrics) *Pool {
	p.metrics = m
	return p
}

// WithContext binds a cancellation context to the pool and returns the pool
// for chaining. A cancelled context stops Map from dispatching shards that
// are still queued; shards already executing run to completion (the work
// functions are not required to be interruptible). After a cancelled Map
// returns, index-addressed results are partial — callers must check the
// context before consuming them.
func (p *Pool) WithContext(ctx context.Context) *Pool {
	p.ctx = ctx
	return p
}

// cancelled reports whether the pool's bound context (if any) is done.
func (p *Pool) cancelled() bool {
	return p.ctx != nil && p.ctx.Err() != nil
}

// Workers returns the resolved worker bound.
func (p *Pool) Workers() int { return p.workers }

var _ Mapper = (*Pool)(nil)

// PoolMetrics are a pool's registry series; share one bundle across pools
// created for the same purpose (they are labeled by pool name, not
// instance).
type PoolMetrics struct {
	QueueDepth  *telemetry.Gauge   // shards still queued
	BusyWorkers *telemetry.Gauge   // shards currently executing
	TasksDone   *telemetry.Counter // shards completed
}

// NewPoolMetrics registers the pool metric families on reg under the given
// pool name label.
func NewPoolMetrics(reg *telemetry.Registry, pool string) *PoolMetrics {
	l := telemetry.L("pool", pool)
	return &PoolMetrics{
		QueueDepth:  reg.Gauge("critics_pool_queue_depth", "Shards waiting in the pool queue.", l),
		BusyWorkers: reg.Gauge("critics_pool_busy_workers", "Workers currently executing a shard.", l),
		TasksDone:   reg.Counter("critics_pool_tasks_done_total", "Shards completed by the pool.", l),
	}
}

// Map runs f(i) for every i in [0, n) across the pool's workers and waits
// for completion. With one worker (or n <= 1) the shards run serially in
// index order on the calling goroutine — the reference schedule that
// parallel runs must be bit-identical to. Worker goroutines carry pprof
// labels (pool name, worker index) and each shard additionally carries its
// shard index, so CPU profiles attribute time to experiment shards.
//
// With a context bound via WithContext, Map stops dispatching queued shards
// once the context is cancelled and returns after the in-flight ones finish;
// the determinism contract then no longer holds (some indices were never
// run) and callers must discard the partial results.
//
// A panicking shard does not take the process down from a worker goroutine:
// Map records the first panic, stops dispatching, lets the in-flight shards
// finish, and re-raises that panic on the calling goroutine — where the
// serial schedule would have raised it — so the caller's recover (e.g. the
// cancellation mapping of exp.RunContext) sees it.
func (p *Pool) Map(n int, f func(i int)) {
	if n <= 0 || p.cancelled() {
		return
	}
	// When the bound context carries a job trace, record the whole fan-out
	// as one span. Maps within a job run one after another (each blocks its
	// caller), so a per-trace ordinal keeps the id deterministic.
	if t, parent, ok := obs.FromContext(p.ctx); ok && t != nil {
		prefix := "map:" + p.name
		id := prefix + "#" + strconv.Itoa(t.Seq(prefix))
		t0 := t.Now()
		defer func() {
			t.Add(obs.Span{
				ID: id, Parent: parent, Name: prefix,
				StartUS: t0, DurUS: t.Now() - t0,
				Attrs: []obs.Attr{obs.A("shards", strconv.Itoa(n))},
			})
		}()
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	m := p.metrics
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if p.cancelled() {
				return
			}
			if m != nil {
				m.QueueDepth.Set(int64(n - i - 1))
				m.BusyWorkers.Set(1)
			}
			f(i)
			if m != nil {
				m.BusyWorkers.Set(0)
				m.TasksDone.Inc()
			}
		}
		return
	}
	var (
		wg        sync.WaitGroup
		failed    atomic.Bool
		firstOnce sync.Once
		first     any
	)
	// run executes one shard, capturing a panic instead of unwinding the
	// worker goroutine.
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				firstOnce.Do(func() { first = r })
				failed.Store(true)
			}
		}()
		f(i)
	}
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			labels := pprof.Labels("pool", p.name, "worker", strconv.Itoa(worker))
			pprof.Do(context.Background(), labels, func(ctx context.Context) {
				for i := range next {
					if p.cancelled() || failed.Load() {
						return
					}
					if m != nil {
						m.QueueDepth.Set(int64(len(next)))
						m.BusyWorkers.Add(1)
					}
					pprof.Do(ctx, pprof.Labels("shard", strconv.Itoa(i)), func(context.Context) {
						run(i)
					})
					if m != nil {
						m.BusyWorkers.Add(-1)
						m.TasksDone.Inc()
					}
				}
			})
		}(w)
	}
	wg.Wait()
	if failed.Load() {
		panic(first)
	}
}
