package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"critics"
	"critics/internal/compiler"
	"critics/internal/core"
	"critics/internal/cpu"
	"critics/internal/dfg"
	"critics/internal/exp"
	"critics/internal/prog"
	"critics/internal/trace"
	"critics/internal/workload"
)

// optimizeNominalMS is roughly what one optimize-cold op costs on a 2-vCPU
// x86 host. It only sizes the op list from --seconds.
const optimizeNominalMS = 120

// appRounds returns rounds seeded permutations of the mobile apps, one
// after the other. Per-app costs differ by more than 2×, so every run draws
// each app equally often.
func appRounds(rng *rand.Rand, rounds int) []workload.App {
	apps := workload.MobileApps()
	out := make([]workload.App, 0, rounds*len(apps))
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(len(apps)) {
			out = append(out, apps[i])
		}
	}
	return out
}

// optimizeMode is how an optimize-cold op runs its app.
type optimizeMode int

const (
	viaFacade      optimizeMode = iota // critics.OptimizeApp
	layersUntraced                     // optimizeLayers without a recorder
	layersTraced                       // optimizeLayers recording a span per layer
)

// optimizeOp is one optimize-cold op.
type optimizeOp struct {
	app  workload.App
	mode optimizeMode
}

// optimizeGroup is how many ops a traced run makes of each app drawn: one
// through the facade, then the layers called directly, once untraced and
// once traced. Op i belongs to group i/optimizeGroup.
const optimizeGroup = 3

// optimizeOps returns the op list of a run: rounds of all ten apps through
// the facade, or for a traced run a group of optimizeGroup ops per app. The
// two layer ops of a group swap places from one group to the next, so
// neither half of the tracing-overhead comparison always runs second.
func optimizeOps(rng *rand.Rand, rc runConfig) []optimizeOp {
	rounds := max(1, rc.scaled(optimizeNominalMS)/10)
	if rc.rec == nil {
		var ops []optimizeOp
		for _, a := range appRounds(rng, rounds) {
			ops = append(ops, optimizeOp{a, viaFacade})
		}
		return ops
	}
	var ops []optimizeOp
	for g, a := range appRounds(rng, max(1, rounds/optimizeGroup)) {
		first, second := layersUntraced, layersTraced
		if g%2 == 1 {
			first, second = second, first
		}
		ops = append(ops, optimizeOp{a, viaFacade}, optimizeOp{a, first}, optimizeOp{a, second})
	}
	return ops
}

// runOptimize is the optimize-cold workload: a closed loop with one client,
// each op a full quick-scale critics.OptimizeApp on fresh caches (generate,
// profile, compile, simulate both binaries). A traced run also runs the same
// pipeline as direct calls into each layer, timed one by one.
func runOptimize(rc runConfig, want *expected) (*phase, map[string]float64, error) {
	rng := rand.New(rand.NewSource(rc.seed))
	ops := optimizeOps(rng, rc)
	warm := appRounds(rng, 1)[:5]
	p := &phase{}

	for s := 0; s < rc.setups; s++ {
		if err := p.setup(func() error {
			for _, a := range warm {
				rep, err := critics.OptimizeApp(a.Params.Name, critics.WithQuickScale())
				if err != nil {
					return err
				}
				if err := want.checkReport(a.Params.Name, keyOf(rep)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, nil, fmt.Errorf("optimize-cold set-up: %w", err)
		}
	}

	p.begin()
	for i, o := range ops {
		t := time.Now()
		var got reportKey
		var err error
		h := halfNone
		switch o.mode {
		case viaFacade:
			var rep *critics.Report
			if rep, err = critics.OptimizeApp(o.app.Params.Name, critics.WithQuickScale()); err == nil {
				got = keyOf(rep)
			}
		case layersUntraced:
			got, err = optimizeLayers(nil, i, o.app)
			h = halfUntraced
		case layersTraced:
			got, err = optimizeLayers(rc.rec, i, o.app)
			h = halfTraced
		}
		lat := ms(time.Since(t))
		if o.mode == viaFacade {
			rc.rec.count("critics.optimize_app_ms", i, lat)
		}
		if err == nil {
			err = want.checkReport(o.app.Params.Name, got)
		}
		p.op(lat, h, err)
		if o.mode == layersTraced {
			simProbe(rc.rec, i, o.app)
		}
	}
	p.finish()

	r := rc.rec
	if r == nil {
		return p, nil, nil
	}
	layers := map[string]float64{
		"workload.generate_ms":         median(r.durationsMS("workload.generate")),
		"trace.collect_ms":             median(r.durationsMS("trace.collect")),
		"core.build_profile_ms":        median(r.durationsMS("core.build_profile")),
		"compiler.apply_critic_ms":     median(r.durationsMS("compiler.apply_critic")),
		"compiler.apply_critic_allocs": median(r.values("compiler.apply_critic_allocs")),
		"exp.measure_ms":               median(r.durationsMS("exp.measure")),
		"cpu.sim_ns_per_instr":         r.sum("cpu.sim_ns") / r.sum("cpu.sim_instrs"),
		"critics.unattributed_frac":    median(unattributed(r)),
	}
	return p, layers, nil
}

// unattributed returns, for each group of a traced run, the share of the
// group's OptimizeApp time that its traced op's layer calls do not account
// for: the facade's own work around the layers.
func unattributed(r *recorder) []float64 {
	facade := map[int]float64{}
	for _, c := range r.counts {
		if c.Name == "critics.optimize_app_ms" {
			facade[c.Op/optimizeGroup] = c.Value
		}
	}
	layers := map[int]float64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			layers[s.Op/optimizeGroup] += float64(s.End-s.Start) / 1e6
		}
	}
	var out []float64
	for g, l := range layers {
		if f, ok := facade[g]; ok && f > 0 {
			out = append(out, 1-l/f)
		}
	}
	return out
}

// optimizeLayers runs critics.OptimizeApp's pipeline at quick scale as one
// call per layer, with a span around each when r is not nil. It computes
// what OptimizeApp computes for the report's cycles and code sizes, and
// nothing is cached between ops.
func optimizeLayers(r *recorder, op int, a workload.App) (reportKey, error) {
	root := r.start("critics.optimize_app", 0, op)
	defer r.finish(root)
	ec := exp.QuickContext()

	s := r.start("workload.generate", root, op)
	base := workload.Generate(a.Params)
	r.finish(s)

	s = r.start("trace.collect", root, op)
	windows := trace.Collect(base, a.Params.Seed, ec.ProfilePlan)
	r.finish(s)

	cfg := core.DefaultConfig()
	cfg.RequireThumb = true
	cfg.Workers = runtime.GOMAXPROCS(0)
	s = r.start("core.build_profile", root, op)
	prof := core.BuildProfile(base, windows, cfg)
	r.finish(s)

	var allocs0 uint64
	if r != nil {
		allocs0 = heapAllocObjects()
	}
	s = r.start("compiler.apply_critic", root, op)
	opt, _, err := compiler.ApplyCritIC(base, prof, compiler.Options{MaxLen: 5, Switch: compiler.SwitchCDP})
	r.finish(s)
	if r != nil {
		r.count("compiler.apply_critic_allocs", op, float64(heapAllocObjects()-allocs0))
	}
	if err != nil {
		return reportKey{}, fmt.Errorf("%s: compiling: %w", a.Params.Name, err)
	}

	s = r.start("exp.measure", root, op)
	mBase := ec.Measure(base, cpu.DefaultConfig(), false)
	r.finish(s)
	s = r.start("exp.measure", root, op)
	mOpt := ec.Measure(opt, cpu.DefaultConfig(), false)
	r.finish(s)

	return reportKey{mBase.Res.Cycles, mOpt.Res.Cycles, base.CodeBytes, opt.CodeBytes}, nil
}

// simProbe times cpu.Sim.Run alone over the app's measured window,
// generated beforehand, so the simulator's cost per instruction is measured
// apart from trace generation. It runs after the op and outside its span.
func simProbe(r *recorder, op int, a workload.App) {
	ec := exp.QuickContext()
	p := workload.Generate(a.Params)
	dyns, fan := measuredWindow(ec, p)
	s := r.start("cpu.sim_run", 0, op)
	cpu.New(cpu.DefaultConfig()).Run(dyns, fan)
	r.finish(s)
	r.count("cpu.sim_ns", op, float64(r.spans[s-1].End-r.spans[s-1].Start))
	r.count("cpu.sim_instrs", op, float64(len(dyns)))
}

// measuredWindow materialises the window a measurement of p simulates after
// its warm-up, with its fanouts.
func measuredWindow(ec *exp.Context, p *prog.Program) ([]trace.Dyn, []int32) {
	g := trace.NewGenerator(p, ec.Seed)
	g.SkipArch(ec.WarmupArch + ec.WarmArch)
	dyns := g.GenerateArch(nil, ec.MeasureArch)
	return dyns, dfg.Fanouts(dyns, 128)
}

// heapAllocObjects returns the process's cumulative count of heap
// allocations.
func heapAllocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
