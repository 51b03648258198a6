package main

import (
	"fmt"
	"math/rand"
	"time"

	"critics/internal/cpu"
	"critics/internal/dfg"
	"critics/internal/exp"
	"critics/internal/telemetry"
	"critics/internal/trace"
	"critics/internal/workload"
)

// sweepNominalMS is roughly what one sweep-warm op costs on a 2-vCPU x86
// host. It only sizes the op list from --seconds.
const sweepNominalMS = 350

// sweepSeedsPerApp is how many measurement seeds each app can draw: a run
// uses each (app, seed) at most once, so its measurements always miss the
// cache, and every one of them has a recorded expected outcome.
const sweepSeedsPerApp = 20

// sweepMeasureArch is the measured window of sweep-warm, the full-scale
// 120k instructions rather than quick scale's 40k. The context keeps every
// measurement it makes, about 1.2 MB each whatever the window (the
// simulator's cache hierarchy and predictor stay reachable from the cached
// result), so longer windows put more simulation in each op for the memory
// a run grows by.
const sweepMeasureArch = 120_000

// sweepContext returns a quick-scale context measuring sweepMeasureArch.
func sweepContext() *exp.Context {
	ec := exp.QuickContext()
	ec.MeasureArch = sweepMeasureArch
	return ec
}

// sweepSeed is the Context.Seed of an app's j-th measurement seed.
func sweepSeed(j int) int64 { return 1000 + int64(j) }

// sweepKinds and sweepWidths are the ablate-fetch grid: each op measures
// every kind at every fetch width, which MeasureSweep runs as one 3-lane
// batched build per kind.
var (
	sweepKinds  = []string{exp.VarBase, exp.VarCritIC, exp.VarOPP16, exp.VarHoist}
	sweepWidths = []int{8, 12, 16}
)

func sweepUnits() []exp.MeasureUnit {
	var units []exp.MeasureUnit
	for _, w := range sweepWidths {
		cfg := cpu.DefaultConfig()
		cfg.FetchBytes = w
		for _, k := range sweepKinds {
			units = append(units, exp.MeasureUnit{Kind: k, Cfg: cfg})
		}
	}
	return units
}

// sweepOp is one sweep-warm op: an app and the index of its measurement
// seed.
type sweepOp struct {
	app  workload.App
	seed int
}

// sweepOps draws rounds of all ten apps in seeded order, each op with the
// app's next unused seed from a seeded permutation of its seeds; the two
// warm-up ops take seeds no timed op uses.
func sweepOps(rc runConfig) (ops, warm []sweepOp, err error) {
	rounds := max(1, rc.scaled(sweepNominalMS)/10)
	if rounds+1 > sweepSeedsPerApp {
		return nil, nil, fmt.Errorf("sweep-warm: --seconds %d needs %d seeds per app, have %d", rc.seconds, rounds+1, sweepSeedsPerApp)
	}
	rng := rand.New(rand.NewSource(rc.seed))
	apps := workload.MobileApps()
	perm := make([][]int, len(apps))
	for i := range apps {
		perm[i] = rng.Perm(sweepSeedsPerApp)
	}
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(len(apps)) {
			ops = append(ops, sweepOp{apps[i], perm[i][r]})
		}
	}
	for _, i := range rng.Perm(len(apps))[:2] {
		warm = append(warm, sweepOp{apps[i], perm[i][sweepSeedsPerApp-1]})
	}
	return ops, warm, nil
}

// runSweep is the sweep-warm workload: a closed loop with one client on one
// exp.Context whose programs, profiles and compiled variants were built at
// set-up. Each op is MeasureSweep for one app over the ablate-fetch grid
// under a fresh Context.Seed, which is in the measurement key but not in the
// program or variant key: every op simulates afresh and compiles nothing.
func runSweep(rc runConfig, want *expected) (*phase, map[string]float64, error) {
	ops, warm, err := sweepOps(rc)
	if err != nil {
		return nil, nil, err
	}
	units := sweepUnits()
	p := &phase{}
	var ec *exp.Context
	for s := 0; s < rc.setups; s++ {
		ec = nil // drop the previous set-up's caches before building anew
		if err := p.setup(func() error {
			ec = sweepContext()
			for _, a := range workload.MobileApps() {
				ec.Profile(a, false, 1)
				for _, k := range sweepKinds {
					ec.Variant(a, k)
				}
			}
			for _, o := range warm {
				ec.Seed = sweepSeed(o.seed)
				if err := want.checkSweep(o.app.Params.Name, o.seed, ec.MeasureSweep(o.app, units, false)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, nil, fmt.Errorf("sweep-warm set-up: %w", err)
		}
	}

	// The first traced op also counts batched builds and their lanes, through
	// the engine's telemetry: exp observes each batched build's lane count
	// into this series. Telemetry also counts simulator events, which slows
	// the lanes by a fifth on a 2-vCPU host, so no other op attaches it.
	var reg *telemetry.Registry
	var lanes *telemetry.Histogram
	if rc.rec != nil {
		reg = telemetry.NewRegistry()
		lanes = reg.Histogram("critics_measure_batch_lanes", "", nil)
	}

	r := rc.rec
	p.begin()
	for i, o := range ops {
		traced := rc.traced(i)
		h := halfOf(traced)
		ec.Seed = sweepSeed(o.seed)
		var root int
		if traced {
			if lanes.Count() == 0 {
				ec.SetTelemetry(reg)
				h = halfNone // telemetry slows the lanes, not tracing
			}
			root = r.start("exp.measure_sweep", 0, i)
		}
		before := ec.CacheStats()
		t := time.Now()
		got := ec.MeasureSweep(o.app, units, false)
		lat := ms(time.Since(t))
		after := ec.CacheStats()
		if traced {
			r.finish(root)
			ec.SetTelemetry(nil)
			r.count("sched.meas_hits", i, float64(after.Measurements.Hits-before.Measurements.Hits))
			r.count("sched.meas_lookups", i, float64(after.Measurements.Hits+after.Measurements.Misses-before.Measurements.Hits-before.Measurements.Misses))
			r.count("sched.variant_hits", i, float64(after.Variants.Hits-before.Variants.Hits))
			r.count("sched.variant_lookups", i, float64(after.Variants.Hits+after.Variants.Misses-before.Variants.Hits-before.Variants.Misses))
		}
		err := want.checkSweep(o.app.Params.Name, o.seed, got)
		if err == nil {
			err = sweepShape(o.app.Params.Name, before, after)
		}
		p.op(lat, h, err)
		if traced {
			sweepProbes(r, i, ec, o.app)
		}
	}
	p.finish()

	if r == nil {
		return p, nil, nil
	}
	layers := map[string]float64{
		"exp.measure_sweep_ms":      median(r.durationsMS("exp.measure_sweep")),
		"exp.batch_lanes":           lanes.Sum() / float64(lanes.Count()),
		"trace.window_gen_ms":       median(r.opMS("trace.window_gen")),
		"cpu.sim_ns_per_lane_instr": r.sum("cpu.batch_ns") / r.sum("cpu.lane_instrs"),
		"cpu.sim_ns_per_instr":      r.sum("cpu.sim_ns") / r.sum("cpu.sim_instrs"),
		"sched.meas_hit_ratio":      r.sum("sched.meas_hits") / r.sum("sched.meas_lookups"),
		"sched.variant_hit_ratio":   r.sum("sched.variant_hits") / r.sum("sched.variant_lookups"),
	}
	return p, layers, nil
}

// sweepShape checks that a sweep op had the intended shape: every
// measurement missed the cache and every variant hit it, so the op simulated
// afresh and compiled nothing.
func sweepShape(app string, before, after exp.CacheStats) error {
	if n := after.Measurements.Hits - before.Measurements.Hits; n != 0 {
		return fmt.Errorf("sweep of %s hit the measurement cache %d times", app, n)
	}
	if n := after.Variants.Misses - before.Variants.Misses; n != 0 {
		return fmt.Errorf("sweep of %s built %d variants", app, n)
	}
	return nil
}

// sweepProbes time, after a traced op and outside its span, the two halves
// of a batched sweep apart: the shared front end (trace generation and
// fanouts of every kind's window, drained without simulating) and the
// simulator lanes alone over a window generated beforehand.
func sweepProbes(r *recorder, op int, ec *exp.Context, a workload.App) {
	var src trace.GenSource
	var fs dfg.FanoutStream
	for _, k := range sweepKinds {
		p, _ := ec.Variant(a, k)
		s := r.start("trace.window_gen", 0, op)
		g := trace.NewGenerator(p, ec.Seed)
		g.SkipArch(ec.WarmupArch)
		for _, n := range []int{ec.WarmArch, ec.MeasureArch} {
			src.Reset(g, n, trace.DefaultChunk)
			fs.Reset(&src, 128)
			for d, _ := fs.Next(); d != nil; d, _ = fs.Next() {
			}
		}
		r.finish(s)
	}

	base, _ := ec.Variant(a, exp.VarBase)
	dyns, fan := measuredWindow(ec, base)
	cfgs := make([]cpu.Config, len(sweepWidths))
	for i, w := range sweepWidths {
		cfgs[i] = cpu.DefaultConfig()
		cfgs[i].FetchBytes = w
	}
	s := r.start("cpu.batch_run", 0, op)
	cpu.NewBatch(cfgs).Run(dyns, fan)
	r.finish(s)
	r.count("cpu.batch_ns", op, float64(r.spans[s-1].End-r.spans[s-1].Start))
	r.count("cpu.lane_instrs", op, float64(len(cfgs)*len(dyns)))

	s = r.start("cpu.sim_run", 0, op)
	cpu.New(cfgs[0]).Run(dyns, fan)
	r.finish(s)
	r.count("cpu.sim_ns", op, float64(r.spans[s-1].End-r.spans[s-1].Start))
	r.count("cpu.sim_instrs", op, float64(len(dyns)))
}
