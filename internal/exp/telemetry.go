package exp

import (
	"encoding/hex"

	"critics/internal/cpu"
	"critics/internal/obs"
	"critics/internal/sched"
	"critics/internal/telemetry"
)

// Telemetry bundles the experiment engine's registry series. It is built by
// Context.SetTelemetry; a nil bundle (the default) disables all
// instrumentation.
type Telemetry struct {
	reg *telemetry.Registry

	// Sim is shared by every simulator the context runs (Context.Measure
	// attaches it to the cpu.Config after memo keys are computed, so
	// telemetry never perturbs cache identity).
	Sim *cpu.Metrics

	// Pool instruments the per-app shard pool (Context.ForEach).
	Pool *sched.PoolMetrics

	// MeasureSeconds observes the wall time of each uncached Measure call
	// (trace generation + DFG + warm-up + measured simulation). A batched
	// build observes once for the whole batch — the shared trace pass is
	// the point of batching.
	MeasureSeconds *telemetry.Histogram

	// BatchedMeasurements counts measurements produced by the batched sweep
	// path (MeasureBatch cache misses built in lockstep).
	BatchedMeasurements *telemetry.Counter

	// BatchLanes observes the lane count of each batched build — how much
	// trace-generation sharing the sweeps actually get.
	BatchLanes *telemetry.Histogram
}

// expSecondsBuckets cover 10ms..~5min experiment wall times.
var expSecondsBuckets = telemetry.ExpBuckets(0.01, 2, 15)

// SetTelemetry attaches a metrics registry to the context: simulator, pool
// and per-experiment series are registered eagerly, and the memo caches are
// folded in as scrape-time functions reading the caches' own atomic
// counters — the same source of truth CacheStats reports, with no double
// bookkeeping.
func (c *Context) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		c.tel = nil
		return
	}
	c.tel = &Telemetry{
		reg:  reg,
		Sim:  cpu.NewMetrics(reg),
		Pool: sched.NewPoolMetrics(reg, "exp"),
		MeasureSeconds: reg.Histogram("critics_measure_seconds",
			"Wall time of uncached measurement builds (trace+DFG+simulate).",
			expSecondsBuckets),
		BatchedMeasurements: reg.Counter("critics_measure_batched_total",
			"Measurements built by the batched sweep path (lockstep lanes over a shared trace)."),
		BatchLanes: reg.Histogram("critics_measure_batch_lanes",
			"Lane count per batched measurement build.",
			telemetry.LinearBuckets(1, 1, 16)),
	}
	registerMemo(reg, "programs", c.caches.progs)
	registerMemo(reg, "profiles", c.caches.profs)
	registerMemo(reg, "variants", c.caches.variants)
	registerMemo(reg, "measurements", c.caches.meas)
}

// Registry returns the attached registry (nil when telemetry is off).
func (c *Context) Registry() *telemetry.Registry {
	if c.tel == nil {
		return nil
	}
	return c.tel.reg
}

// SetTracer attaches a Chrome trace-event tracer; engine-level spans
// (experiments, memo lookups with hit/miss) are emitted on
// telemetry.EnginePID while it is non-nil.
func (c *Context) SetTracer(tr *telemetry.Tracer) { c.tracer = tr }

// Tracer returns the attached tracer (nil when tracing is off).
func (c *Context) Tracer() *telemetry.Tracer { return c.tracer }

// registerMemo exposes one memo cache's counters on the registry, reading
// the cache's own atomics at scrape time.
func registerMemo[V any](reg *telemetry.Registry, name string, m *sched.Memo[V]) {
	l := telemetry.L("cache", name)
	reg.CounterFunc("critics_memo_hits_total", "Memo cache hits by cache.",
		func() float64 { return float64(m.Stats().Hits) }, l)
	reg.CounterFunc("critics_memo_misses_total", "Memo cache misses by cache.",
		func() float64 { return float64(m.Stats().Misses) }, l)
	reg.CounterFunc("critics_memo_skipped_total", "Values computed but not retained (budget exhausted) by cache.",
		func() float64 { return float64(m.Stats().Skipped) }, l)
	reg.GaugeFunc("critics_memo_entries", "Retained memo entries by cache.",
		func() float64 { return float64(m.Len()) }, l)
	reg.GaugeFunc("critics_memo_bytes", "Summed retention cost of memo entries by cache.",
		func() float64 { return float64(m.UsedBytes()) }, l)
}

// memoGet wraps a memo lookup with the context's cancellation-validity check
// (builds finished under a cancelled run context are discarded, never
// retained) and an engine-level trace span labeled with the hit/miss
// outcome. With no tracer and no run context attached it is exactly
// Memo.Get. Under cancellation the returned value may be the zero value —
// callers observe Context.Err and discard the run's outputs.
func memoGet[V any](c *Context, m *sched.Memo[V], span string, key sched.Key, build func() V, cost func(V) int64) V {
	valid := c.validFn()
	if valid != nil && !valid() {
		// Already cancelled: skip the build entirely. Nested stage lookups
		// (a profile build fetching its program) get the zero value without
		// running, and the entry point fails on Context.Err before using it.
		var zero V
		return zero
	}
	tr := c.tracer
	ot, oparent, obsOn := obs.FromContext(c.runCtx)
	if tr == nil && !obsOn {
		v, _ := m.GetChecked(key, build, cost, valid)
		return v
	}
	var t0, o0 int64
	if tr != nil {
		t0 = tr.Now()
	}
	if obsOn {
		o0 = ot.Now()
	}
	v, hit := m.GetChecked(key, build, cost, valid)
	if tr != nil {
		tr.Span(telemetry.EnginePID, span, "memo", t0, tr.Now()-t0, telemetry.Bool("hit", hit))
	}
	if obsOn {
		// Hits only bump the trace's memo counters; the builder (hit=false)
		// records a span whose id derives from the content key, so the span
		// set of a run is reproducible regardless of shard scheduling.
		if hit {
			ot.MemoHit()
		} else {
			ot.MemoMiss()
			ot.Add(obs.Span{
				ID: obs.BuildSpanID(span, keyHex8(key)), Parent: oparent,
				Name: span, StartUS: o0, DurUS: ot.Now() - o0,
			})
		}
	}
	return v
}

// keyHex8 is the first 8 hex digits of a memo key — enough to make
// same-label build spans distinct within one job's trace.
func keyHex8(k sched.Key) string { return hex.EncodeToString(k[:4]) }
