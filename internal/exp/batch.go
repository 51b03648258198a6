package exp

import (
	"time"

	"critics/internal/cpu"
	"critics/internal/prog"
	"critics/internal/sched"
	"critics/internal/trace"
	"critics/internal/workload"
)

// MeasureUnit names one measurement of a design-space sweep: a compiled
// variant kind and a machine configuration.
type MeasureUnit struct {
	Kind string
	Cfg  cpu.Config
}

// MeasureSweep measures a set of units for one app through the memo cache.
// Cache misses that share a trace key — the generated trace depends on the
// compiled program (kind), never the machine — are simulated together as the
// lanes of one measureLanes build: the fig10–fig13 design-space shape pays
// one trace-generation + fanout pass per kind. Each lane is published under
// the per-variant key MeasureVariant uses, so results are bit-identical to
// independent MeasureVariant calls, later lookups hit the same entries, and
// distributed workers never see a new request shape. Results are positional.
//
// Batching is a build-strategy choice only. Cached units are served by
// Memo.Peek, duplicate units share one measurement, and a kind with a single
// miss, a context with a Remote attached (fleet execution is per-variant) or
// the forced serial reference schedule goes through MeasureVariant. Under a
// cancelled run context results may be nil, as with MeasureVariant.
func (c *Context) MeasureSweep(a workload.App, units []MeasureUnit, collect bool) []*Measurement {
	out := make([]*Measurement, len(units))
	keys := make([]sched.Key, len(units))
	first := make(map[sched.Key]int, len(units))
	missByKind := make(map[string][]int)
	var kinds []string
	for i, u := range units {
		keys[i] = c.measKey(a, u.Kind, u.Cfg, collect)
		if _, dup := first[keys[i]]; dup {
			continue
		}
		first[keys[i]] = i
		if m, ok := c.caches.meas.Peek(keys[i]); ok {
			out[i] = m
			continue
		}
		if _, ok := missByKind[u.Kind]; !ok {
			kinds = append(kinds, u.Kind)
		}
		missByKind[u.Kind] = append(missByKind[u.Kind], i)
	}

	for _, kind := range kinds {
		miss := missByKind[kind]
		if len(miss) == 1 || c.remote != nil || c.serialSweeps {
			for _, i := range miss {
				out[i] = c.MeasureVariant(a, kind, units[i].Cfg, collect)
			}
			continue
		}
		cfgs := make([]cpu.Config, len(miss))
		for bi, i := range miss {
			cfgs[bi] = units[i].Cfg
		}
		if c.tel != nil {
			c.tel.BatchedMeasurements.Add(int64(len(cfgs)))
			c.tel.BatchLanes.Observe(float64(len(cfgs)))
		}
		p, _ := c.Variant(a, kind)
		ms := c.measureLanes(p, cfgs, collect)
		for bi, i := range miss {
			m := ms[bi]
			// Publish under the per-variant key: a build of the same key
			// that won since the peek is shared (bit-identical either way),
			// and a cancelled run context gets nil, as from MeasureVariant.
			out[i] = memoGet(c, c.caches.meas, "measure "+a.Params.Name+"/"+kind, keys[i],
				func() *Measurement { return m }, measurementCost)
		}
	}

	for i := range out {
		if j := first[keys[i]]; j != i {
			out[i] = out[j]
		}
	}
	return out
}

// measureLanes is the one measurement build: p simulated under every
// configuration over the context's window, as the lanes of one cpu.BatchSim.
// One generator skips the warm-up; the warm window, then the measured window,
// stream through the batch in chunks while each lane folds its measured
// retirements into its WindowAgg. A one-lane batch is exactly a lone cpu.Sim,
// so lane i equals Measure(p, cfgs[i], collect). collect=true keeps the
// measured window as it streams past (shared read-only by every lane) and
// each lane's stage records. cfgs is set up in place: callers hand it over.
func (c *Context) measureLanes(p *prog.Program, cfgs []cpu.Config, collect bool) []*Measurement {
	for i := range cfgs {
		cfgs[i].CollectRecords = collect
		if c.tel != nil {
			cfgs[i].Metrics = c.tel.Sim
		}
	}
	if c.tel != nil {
		defer func(start time.Time) {
			c.tel.MeasureSeconds.Observe(time.Since(start).Seconds())
		}(time.Now())
	}

	g := trace.NewGenerator(p, c.Seed)
	g.SkipArch(c.WarmupArch)
	b := cpu.NewBatch(cfgs)
	bufs := measureBufs.Get().(*measureBuffers)
	defer measureBufs.Put(bufs)
	bufs.src.Reset(g, c.WarmArch, trace.DefaultChunk)
	bufs.fs.Reset(&bufs.src, 128)
	b.RunStream(&bufs.fs)

	ms := make([]*Measurement, len(cfgs))
	for i := range ms {
		ms[i] = &Measurement{}
		b.Lane(i).OnCommit(ms[i].aggObserver(c.HighFanout))
	}
	bufs.src.Reset(g, c.MeasureArch, trace.DefaultChunk)
	bufs.fs.Reset(&bufs.src, 128)
	kept := keepStream{Stream: &bufs.fs}
	var st cpu.Stream = &bufs.fs
	if collect {
		st = &kept
	}
	for i, res := range b.RunStream(st) {
		ms[i].Res = res
		ms[i].Dyns, ms[i].Fanouts = kept.dyns, kept.fan
	}
	return ms
}

// keepStream passes a stream through unchanged while appending every chunk
// it hands out — how a collect=true measurement keeps its measured window.
type keepStream struct {
	cpu.Stream
	dyns []trace.Dyn
	fan  []int32
}

func (k *keepStream) Next() ([]trace.Dyn, []int32) {
	d, f := k.Stream.Next()
	k.dyns = append(k.dyns, d...)
	k.fan = append(k.fan, f...)
	return d, f
}
