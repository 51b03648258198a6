// Package exp implements one runner per table and figure of the paper's
// evaluation. Each runner assembles workloads (internal/workload), profiles
// (internal/core), compiled variants (internal/compiler) and simulations
// (internal/cpu) into exactly the rows/series the paper reports; the
// formatting methods print them. cmd/criticsim exposes the runners on the
// command line and bench_test.go wraps each in a benchmark.
//
// Methodology (mirroring §IV-C at reduced scale): every app is profiled
// over sampled windows, each configuration is simulated over the same
// architectural instruction budget after a cache/predictor warm-up window,
// and baseline/optimized pairs see identical control flow and data
// addresses (the trace layer keys its randomness by stable instruction
// identity).
package exp

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"
	"unsafe"

	"critics/internal/compiler"
	"critics/internal/core"
	"critics/internal/cpu"
	"critics/internal/dfg"
	"critics/internal/layout"
	"critics/internal/obs"
	"critics/internal/prog"
	"critics/internal/sched"
	"critics/internal/telemetry"
	"critics/internal/trace"
	"critics/internal/workload"
)

// DefaultMeasureCacheBytes is the default retention budget for memoized
// measurements (their Dyns/Fanouts/Records buffers dominate the engine's
// memory footprint; programs, profiles and variants are small and uncapped).
const DefaultMeasureCacheBytes = 2 << 30

// Context is the experiment execution engine: it carries the scale
// parameters and the content-addressed memo caches that deduplicate
// programs, profiles, compiled variants and simulated measurements across
// runners, and the worker bound the runners shard their (app, variant)
// work over.
type Context struct {
	Seed        int64
	WarmupArch  int // instructions skipped before the warm window
	WarmArch    int // simulated but not measured (cache/BPU warm-up)
	MeasureArch int // measured window, in architectural instructions
	ProfilePlan trace.SamplePlan
	HighFanout  int32 // individually-critical threshold

	// Workers bounds the worker pool the runners shard per-app work over;
	// 0 selects GOMAXPROCS, 1 forces the serial reference schedule.
	// Results are bit-identical for every value (see internal/sched).
	Workers int

	caches *Caches

	// runCtx, when non-nil, is the cancellation signal for everything this
	// context runs: pools stop dispatching shards and memo builds finished
	// under a cancelled context are discarded instead of retained
	// (SetRunContext).
	runCtx context.Context

	// mapper, when non-nil, replaces the local worker pool for shard maps
	// (SetMapper); remote, when non-nil, executes measurement units
	// elsewhere (SetRemote). Both hooks preserve results bit-for-bit — they
	// only move where the work runs.
	mapper sched.Mapper
	remote Remote

	// serialSweeps forces MeasureBatch to build its misses through the
	// per-variant MeasureVariant path — the serial reference schedule the
	// batched-equivalence tests compare the lockstep builds against.
	serialSweeps bool

	// L1IPolicy and CodeLayout select the front-end configuration of the
	// single-app pipeline (critics.OptimizeApp/TraceApp; see frontend.go).
	// Zero values are the defaults — lru replacement, generator-order
	// layout — and leave every memo key and result bit-identical to a
	// context without them. Experiment runners ignore these: sweeps own
	// their axes (fig-frontend sweeps both).
	L1IPolicy  string
	CodeLayout string

	// Observability hooks (telemetry.go); both nil by default, costing the
	// engine nothing.
	tel    *Telemetry
	tracer *telemetry.Tracer
}

type variantEntry struct {
	p  *prog.Program
	st compiler.Stats
}

// Caches bundles the engine's content-addressed memo caches — programs,
// profiles, compiled variants and simulated measurements. Every Context owns
// one by default; a long-lived service shares a single Caches across many
// request-scoped Contexts (Context.UseCaches) so repeated requests for the
// same artifacts are served from memory. Sharing is safe: the caches are
// concurrency-safe with single-flight builds, and every cache key covers the
// full configuration (workload parameters, compiler kind, machine config,
// window/profiling scale), so contexts at different scales coexist without
// collisions.
type Caches struct {
	progs    *sched.Memo[*prog.Program]
	profs    *sched.Memo[*core.Profile]
	variants *sched.Memo[variantEntry]
	meas     *sched.Memo[*Measurement]
}

// NewCaches returns an empty cache bundle with the default measurement
// retention budget.
func NewCaches() *Caches {
	return &Caches{
		progs:    sched.NewMemo[*prog.Program](0),
		profs:    sched.NewMemo[*core.Profile](0),
		variants: sched.NewMemo[variantEntry](0),
		meas:     sched.NewMemo[*Measurement](DefaultMeasureCacheBytes),
	}
}

// Stats returns the bundle's current hit/miss counters.
func (s *Caches) Stats() CacheStats {
	return CacheStats{
		Programs:     s.progs.Stats(),
		Profiles:     s.profs.Stats(),
		Variants:     s.variants.Stats(),
		Measurements: s.meas.Stats(),
	}
}

// NewContext returns the full-scale experiment context.
func NewContext() *Context {
	return &Context{
		Seed:        42,
		WarmupArch:  20_000,
		WarmArch:    30_000,
		MeasureArch: 120_000,
		ProfilePlan: trace.SamplePlan{Samples: 12, Length: 25_000, Gap: 5_000, Warmup: 5_000},
		HighFanout:  8,
		caches:      NewCaches(),
	}
}

// UseCaches swaps the context's memo caches for a shared bundle. Call before
// running anything; artifacts already cached in the bundle are reused.
func (c *Context) UseCaches(s *Caches) {
	if s != nil {
		c.caches = s
	}
}

// SetRunContext binds a cancellation context: worker pools stop dispatching
// queued shards once it is cancelled, and memo values whose build finished
// under a cancelled context are discarded (they may be partial) rather than
// retained or handed to single-flight waiters. Cancellation is best-effort —
// an executing simulation window runs to completion — and a cancelled run's
// outputs must be discarded by the caller (Run/RunContext do).
func (c *Context) SetRunContext(ctx context.Context) { c.runCtx = ctx }

// RunContext returns the bound cancellation context (nil when none is set).
func (c *Context) RunContext() context.Context { return c.runCtx }

// Err returns the bound context's error, or nil when no context is bound or
// it is still live.
func (c *Context) Err() error {
	if c.runCtx == nil {
		return nil
	}
	return c.runCtx.Err()
}

// validFn returns the memo validity check for the current run context: a
// build is retained only if the context was still live when it finished.
// With no context bound every build is valid.
func (c *Context) validFn() func() bool {
	ctx := c.runCtx
	if ctx == nil {
		return nil
	}
	return func() bool { return ctx.Err() == nil }
}

// SetMapper routes the context's shard maps (Context.ForEach) through m
// instead of a locally constructed sched.Pool. nil restores the local pool.
// The mapper must uphold the sched determinism contract; under it, results
// are identical for every mapper.
func (c *Context) SetMapper(m sched.Mapper) { c.mapper = m }

// SetRemote routes measurement units (the expensive profile→compile→simulate
// leaf of every experiment) through r: MeasureVariant cache misses dispatch a
// MeasureRequest instead of computing locally, and the returned measurement
// is cached as if it had been built here. A dispatch error falls back to
// local computation, so a degraded or empty fleet slows a run down but never
// fails it. nil restores local execution.
func (c *Context) SetRemote(r Remote) { c.remote = r }

// QuickContext returns a reduced-scale context for tests and benchmarks.
func QuickContext() *Context {
	c := NewContext()
	c.WarmupArch = 10_000
	c.WarmArch = 15_000
	c.MeasureArch = 40_000
	c.ProfilePlan = trace.SamplePlan{Samples: 6, Length: 15_000, Gap: 4_000, Warmup: 5_000}
	return c
}

// workers resolves the configured worker bound.
func (c *Context) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Program returns (and caches) the generated program for an app, keyed by
// the full generator parameter set (workload seed included).
func (c *Context) Program(a workload.App) *prog.Program {
	key := sched.KeyOf("prog", a.Params)
	return memoGet(c, c.caches.progs, "program "+a.Params.Name, key, func() *prog.Program {
		return workload.Generate(a.Params)
	}, nil)
}

// Profile returns (and caches) the CritIC profile for an app. ideal relaxes
// the all-or-nothing representability requirement during selection
// (CritIC.Ideal). windowsFrac < 1 profiles only the leading fraction of the
// sampled windows (Fig. 12b), round(Samples×windowsFrac) of them and at
// least one. The windows stream through profileWindows; none is kept.
func (c *Context) Profile(a workload.App, ideal bool, windowsFrac float64) *core.Profile {
	key := sched.KeyOf("prof", a.Params, ideal, windowsFrac, c.ProfilePlan)
	return memoGet(c, c.caches.profs, "profile "+a.Params.Name, key, func() *core.Profile {
		p := c.Program(a)
		if c.Err() != nil {
			return nil
		}
		n := c.ProfilePlan.Samples
		if windowsFrac > 0 && windowsFrac < 1 {
			n = max(int(float64(n)*windowsFrac+0.5), 1)
		}
		cfg := core.DefaultConfig()
		cfg.RequireThumb = !ideal
		acc := core.NewAccumulator(p, cfg)
		c.profileWindows(p, a.Params.Seed, n, acc)
		if c.Err() != nil {
			return nil
		}
		return acc.Finish()
	}, nil)
}

// profileWindows adds the first n sampled windows of the context's
// profiling plan to acc, in sample order. A producer goroutine generates
// window k+1 while window k is extracted and folded; the windows alternate
// between two plan.Length buffers, and the unbuffered hand-off means the
// producer only starts window k+2 once the fold of window k is done. A
// cancelled run stops at the next window, leaving acc partial; the producer
// has exited by the time profileWindows returns either way.
func (c *Context) profileWindows(p *prog.Program, seed int64, n int, acc *core.Accumulator) {
	plan := c.ProfilePlan
	bufs := [2][]trace.Dyn{make([]trace.Dyn, 0, plan.Length), make([]trace.Dyn, 0, plan.Length)}
	var (
		full   = make(chan []trace.Dyn)
		stop   = make(chan struct{})
		exited = make(chan struct{})
		perr   any // a panic of the producer, re-raised here
	)
	go func() {
		defer close(exited)
		defer close(full)
		defer func() { perr = recover() }()
		g := trace.NewGenerator(p, seed)
		g.Skip(plan.Warmup)
		for k := 0; k < n; k++ {
			if k > 0 {
				g.Skip(plan.Gap)
			}
			w := g.Generate(bufs[k%2][:0], plan.Length)
			select {
			case full <- w:
			case <-stop:
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-exited
	}()
	for w := range full {
		if c.Err() != nil {
			return
		}
		acc.Add(w)
	}
	if perr != nil {
		panic(perr)
	}
}

// Variant kinds accepted by Context.Variant.
const (
	VarBase         = "base"
	VarHoist        = "hoist"
	VarCritIC       = "critic"
	VarCritICIdeal  = "critic-ideal"
	VarCritICBranch = "critic-branch"
	VarOPP16        = "opp16"
	VarCompress     = "compress"
	VarOPP16CritIC  = "opp16+critic"
)

// Variant returns (and caches) a compiled variant of an app's program.
// For CritIC variants with a length cap other than 5, use kind
// "critic-len-N" (exactly-length-N selection, Fig. 12a) or
// "critic-frac-F" (profiling fraction, Fig. 12b with F in percent). Any
// kind may carry a "+lay-<pass>" suffix (FrontendKind) selecting a
// profile-guided code-layout pass applied after compilation.
// The kind string names the compiler configuration; the cache key adds the
// generator parameters and the profiling plan the variant's profile
// depends on.
func (c *Context) Variant(a workload.App, kind string) (*prog.Program, compiler.Stats) {
	key := sched.KeyOf("variant", a.Params, kind, c.ProfilePlan)
	v := memoGet(c, c.caches.variants, "variant "+a.Params.Name+"/"+kind, key, func() variantEntry {
		p, st := c.buildVariant(a, kind)
		return variantEntry{p: p, st: st}
	}, nil)
	return v.p, v.st
}

func (c *Context) buildVariant(a workload.App, kind string) (*prog.Program, compiler.Stats) {
	// A "+lay-<pass>" suffix re-lays the inner variant's code after
	// compilation: the inner variant is fetched through the memo (so e.g.
	// "critic" and "critic+lay-c3" share one compile), then cloned and
	// re-addressed by internal/layout under the app's standard profile.
	if inner, lay, ok := splitLayoutKind(kind); ok {
		p, st := c.Variant(a, inner)
		q, err := layout.ApplyKind(p, c.Profile(a, false, 1), lay)
		if err != nil {
			panic(fmt.Sprintf("exp: laying out %s/%s: %v", a.Params.Name, kind, err))
		}
		return q, st
	}
	base := c.Program(a)
	var (
		q   *prog.Program
		st  compiler.Stats
		err error
	)
	switch {
	case kind == VarBase:
		return base, compiler.Stats{}
	case kind == VarHoist:
		q, st, err = compiler.ApplyCritIC(base, c.Profile(a, false, 1), compiler.Options{MaxLen: 5, HoistOnly: true})
	case kind == VarCritIC:
		q, st, err = compiler.ApplyCritIC(base, c.Profile(a, false, 1), compiler.Options{MaxLen: 5, Switch: compiler.SwitchCDP})
	case kind == VarCritICIdeal:
		q, st, err = compiler.ApplyCritIC(base, c.Profile(a, true, 1), compiler.Options{MaxLen: core.MaxChainLen, Switch: compiler.SwitchCDP, Ideal: true})
	case kind == VarCritICBranch:
		q, st, err = compiler.ApplyCritIC(base, c.Profile(a, false, 1), compiler.Options{MaxLen: 5, Switch: compiler.SwitchBranch})
	case kind == VarOPP16:
		q, st, err = compiler.ApplyOPP16(base, 3)
	case kind == VarCompress:
		q, st, err = compiler.ApplyCompress(base)
	case kind == VarOPP16CritIC:
		var mid *prog.Program
		mid, st, err = compiler.ApplyCritIC(base, c.Profile(a, false, 1), compiler.Options{MaxLen: 5, Switch: compiler.SwitchCDP})
		if err == nil {
			var st2 compiler.Stats
			q, st2, err = compiler.ApplyOPP16(mid, 3)
			st.ConvertedInstrs += st2.ConvertedInstrs
			st.ExpandedInstrs += st2.ExpandedInstrs
			st.CDPsInserted += st2.CDPsInserted
		}
	default:
		var n, pct int
		if _, e := fmt.Sscanf(kind, "critic-len-%d", &n); e == nil {
			q, st, err = c.buildExactLen(a, n)
			break
		}
		if _, e := fmt.Sscanf(kind, "critic-frac-%d", &pct); e == nil {
			prof := c.Profile(a, false, float64(pct)/100)
			q, st, err = compiler.ApplyCritIC(base, prof, compiler.Options{MaxLen: 5, Switch: compiler.SwitchCDP})
			break
		}
		panic("exp: unknown variant kind " + kind)
	}
	if err != nil {
		panic(fmt.Sprintf("exp: building %s/%s: %v", a.Params.Name, kind, err))
	}
	return q, st
}

// buildExactLen builds the Fig. 12a variant: only chains of exactly length n
// are optimized.
func (c *Context) buildExactLen(a workload.App, n int) (*prog.Program, compiler.Stats, error) {
	full := c.Profile(a, false, 1)
	filtered := &core.Profile{App: full.App, TotalDyn: full.TotalDyn}
	for _, e := range full.Entries {
		if e.Selected && e.Length == n {
			filtered.Entries = append(filtered.Entries, e)
		}
	}
	return compiler.ApplyCritIC(c.Program(a), filtered, compiler.Options{MaxLen: n, Switch: compiler.SwitchCDP})
}

// WindowAgg holds the per-instruction aggregates the figure runners consume,
// folded online while the measured window retires (cpu.Sim.OnCommit). Every
// Measurement carries one regardless of collect mode, so figures that only
// need aggregate breakdowns no longer force O(window) Dyns/Fanouts/Records
// retention. All fields are integer-valued plain data: the JSON round-trip
// through the distributed wire form is exact.
type WindowAgg struct {
	// Threshold is the individually-critical fanout threshold the Crit*
	// fields were folded under (Context.HighFanout at measure time; part
	// of the measurement memo key).
	Threshold int32 `json:"threshold"`

	CritBkd cpu.Breakdown `json:"crit_bkd"` // stage dwell over critical instructions
	AllBkd  cpu.Breakdown `json:"all_bkd"`  // stage dwell over the whole window

	CritDyns     int64 `json:"crit_dyns"`     // fanout >= Threshold
	OverheadDyns int64 `json:"overhead_dyns"` // compiler-inserted (CDPs, switch branches)
	ThumbArch    int64 `json:"thumb_arch"`    // architectural instructions in Thumb state
	ChainDyns    int64 `json:"chain_dyns"`    // members of an optimized chain

	// Critical-instruction measured execute-latency mix (Fig. 3c buckets).
	CritLat1     int64 `json:"crit_lat1"`
	CritLat2to3  int64 `json:"crit_lat2to3"`
	CritLat4Plus int64 `json:"crit_lat4plus"`
}

// Measurement is one simulated window plus the artifacts the figure runners
// consume. Agg is always populated; Dyns, Fanouts and Res.Records are only
// retained when the measurement was taken with collect=true (trace export
// and other per-instruction consumers) — the streaming measure path never
// materializes them.
type Measurement struct {
	Res     cpu.Result
	Agg     WindowAgg
	Dyns    []trace.Dyn
	Fanouts []int32
}

// aggObserver returns the commit observer that folds the measured window
// into m.Agg. Attach it after the warm window so only measured retirements
// are counted.
func (m *Measurement) aggObserver(threshold int32) func(*trace.Dyn, int32, *cpu.Record) {
	agg := &m.Agg
	agg.Threshold = threshold
	return func(d *trace.Dyn, fan int32, r *cpu.Record) {
		b := cpu.BreakdownOf(r)
		agg.AllBkd.Add(b)
		if d.Overhead {
			agg.OverheadDyns++
		} else if d.Thumb {
			agg.ThumbArch++
		}
		if d.ChainID != 0 {
			agg.ChainDyns++
		}
		if fan >= threshold {
			agg.CritDyns++
			agg.CritBkd.Add(b)
			// Measured execute time (loads include their memory time),
			// which is what Fig. 3c contrasts.
			switch lat := r.Done - r.Issued; {
			case lat <= 1:
				agg.CritLat1++
			case lat <= 3:
				agg.CritLat2to3++
			default:
				agg.CritLat4Plus++
			}
		}
	}
}

// Speedup returns base.Cycles / opt.Cycles as a percentage gain.
func Speedup(base, opt *Measurement) float64 {
	if opt.Res.Cycles == 0 {
		return 0
	}
	return 100 * (float64(base.Res.Cycles)/float64(opt.Res.Cycles) - 1)
}

// measureBuffers bundles the streaming scratch state one measurement needs
// — a chunked generator source and an online fanout stream — so repeated
// measurements (and the per-worker loops of criticd/dist fleets) reuse the
// chunk and window buffers instead of reallocating them per window.
type measureBuffers struct {
	src trace.GenSource
	fs  dfg.FanoutStream
}

var measureBufs = sync.Pool{New: func() any { return new(measureBuffers) }}

// Measure simulates one program under cfg over the context's measurement
// window (with warm-up), optionally collecting per-instruction records.
// This is the uncached primitive; experiment runners go through
// MeasureVariant, which memoizes the result.
//
// With collect=false the whole generate → fanout → simulate path streams in
// chunks: peak memory is O(chunk + fanout window) regardless of MeasureArch,
// and the returned Measurement retains only Res and Agg. collect=true
// materializes the window (Dyns, Fanouts, Res.Records) for per-instruction
// consumers. Both paths produce bit-identical Res and Agg.
func (c *Context) Measure(p *prog.Program, cfg cpu.Config, collect bool) *Measurement {
	if c.tel != nil {
		cfg.Metrics = c.tel.Sim
		defer func(start time.Time) {
			c.tel.MeasureSeconds.Observe(time.Since(start).Seconds())
		}(time.Now())
	}
	g := trace.NewGenerator(p, c.Seed)
	g.SkipArch(c.WarmupArch)

	cfg.CollectRecords = collect
	s := cpu.New(cfg)
	m := &Measurement{}

	if collect {
		warm := g.GenerateArch(nil, c.WarmArch)
		dyns := g.GenerateArch(nil, c.MeasureArch)
		warmFan := dfg.Fanouts(warm, 128)
		fan := dfg.Fanouts(dyns, 128)
		s.Run(warm, warmFan)
		s.OnCommit(m.aggObserver(c.HighFanout))
		m.Res = s.Run(dyns, fan)
		m.Dyns, m.Fanouts = dyns, fan
		return m
	}

	b := measureBufs.Get().(*measureBuffers)
	defer measureBufs.Put(b)
	b.src.Reset(g, c.WarmArch, trace.DefaultChunk)
	b.fs.Reset(&b.src, 128)
	s.RunStream(&b.fs)
	s.OnCommit(m.aggObserver(c.HighFanout))
	b.src.Reset(g, c.MeasureArch, trace.DefaultChunk)
	b.fs.Reset(&b.src, 128)
	m.Res = s.RunStream(&b.fs)
	return m
}

// windowSource returns a chunked Source over the context's measure window of
// the given variant — exactly the dyns a Measurement of that variant covers
// (same seed, same warm-up skip), without simulating or materializing the
// window. Chain-structure figures stream their extraction over it.
func (c *Context) windowSource(a workload.App, kind string, chunk int) *trace.GenSource {
	p, _ := c.Variant(a, kind)
	g := trace.NewGenerator(p, c.Seed)
	g.SkipArch(c.WarmupArch)
	g.SkipArch(c.WarmArch)
	return trace.NewGenSource(g, c.MeasureArch, chunk)
}

// MeasureVariant measures one (app, variant, machine config) shard through
// the memo cache: the baseline trace/simulation for an app is computed once
// and reused by every experiment that needs it (fig1a/fig3/fig10/...)
// instead of once per figure. The key covers everything the result depends
// on: workload seed and generator parameters (a.Params), compiler
// configuration (kind), machine configuration (cfg), and the context's
// window/profiling scale. The returned Measurement is shared — callers must
// treat it as read-only.
func (c *Context) MeasureVariant(a workload.App, kind string, cfg cpu.Config, collect bool) *Measurement {
	// Telemetry sinks never participate in cache identity: the key covers
	// the simulated configuration only, and Measure re-attaches the
	// context's sink after the lookup.
	kcfg := cfg
	kcfg.Metrics = nil
	key := sched.KeyOf("meas", a.Params, kind, kcfg, collect,
		c.Seed, c.WarmupArch, c.WarmArch, c.MeasureArch, c.ProfilePlan, c.HighFanout)
	label := "measure " + a.Params.Name + "/" + kind
	return memoGet(c, c.caches.meas, label, key, func() *Measurement {
		remoteFailed := false
		if c.remote != nil {
			ctx := c.runCtx
			if ctx == nil {
				ctx = context.Background()
			}
			// Re-parent the trace context onto this build's span so the
			// dispatch/retry spans the remote records hang under it.
			if t, _, ok := obs.FromContext(ctx); ok {
				ctx = obs.ContextWith(ctx, t, obs.BuildSpanID(label, keyHex8(key)))
			}
			m, err := c.remote.MeasureRemote(ctx, MeasureRequest{
				App: a.Params, Kind: kind, Config: kcfg, Collect: collect,
				Seed: c.Seed, WarmupArch: c.WarmupArch, WarmArch: c.WarmArch,
				MeasureArch: c.MeasureArch, ProfilePlan: c.ProfilePlan,
				HighFanout: c.HighFanout,
			})
			if err == nil {
				return m
			}
			if c.Err() != nil {
				// Cancelled mid-dispatch: return a discardable zero — the
				// memo validity check drops it and the run fails on Err.
				return nil
			}
			// The fleet could not serve the task (drained, all workers
			// down, retries exhausted): compute locally so the run still
			// completes. Remote implementations account the fallback.
			remoteFailed = true
		}
		if remoteFailed {
			if t, _, ok := obs.FromContext(c.runCtx); ok {
				t0 := t.Now()
				defer func() {
					t.Add(obs.Span{
						ID:     obs.BuildSpanID(label, keyHex8(key)) + ":lf",
						Parent: obs.BuildSpanID(label, keyHex8(key)),
						Name:   "local-fallback", StartUS: t0, DurUS: t.Now() - t0,
					})
				}()
			}
		}
		p, _ := c.Variant(a, kind)
		return c.Measure(p, cfg, collect)
	}, measurementCost)
}

// MeasureRequest is the serializable description of one MeasureVariant call
// — the remote unit of work for distributed execution (internal/dist). It
// carries every input the measurement's memo key covers (generator
// parameters, compiler kind, machine configuration with telemetry stripped,
// and the window/profiling scale), so a worker executing it computes exactly
// the artifact the dispatching context would have built locally; every field
// is integer- or bool-valued plain data, so the JSON round-trip is exact and
// distribution preserves bit-identical results.
type MeasureRequest struct {
	App     workload.Params `json:"app"`
	Kind    string          `json:"kind"`
	Config  cpu.Config      `json:"config"`
	Collect bool            `json:"collect,omitempty"`

	Seed        int64            `json:"seed"`
	WarmupArch  int              `json:"warmup_arch"`
	WarmArch    int              `json:"warm_arch"`
	MeasureArch int              `json:"measure_arch"`
	ProfilePlan trace.SamplePlan `json:"profile_plan"`
	HighFanout  int32            `json:"high_fanout"`
}

// Remote executes measurement units somewhere other than this process.
// internal/dist's Coordinator is the fleet-backed implementation.
type Remote interface {
	// MeasureRemote executes req and returns its measurement. The result
	// must be bit-identical to a local execution of the same request; an
	// error makes the caller fall back to computing locally.
	MeasureRemote(ctx context.Context, req MeasureRequest) (*Measurement, error)
}

// ExecuteMeasure runs one measurement request against the given cache bundle
// — the worker side of distributed execution. workers is the request
// context's worker bound (Context.Workers); 0 selects GOMAXPROCS.
// caches == nil builds against a private throwaway bundle. A ctx cancelled
// mid-build aborts the request, and (per the memo validity contract) the
// partial artifacts are not retained.
func ExecuteMeasure(ctx context.Context, req MeasureRequest, caches *Caches, workers int) (m *Measurement, err error) {
	if caches == nil {
		caches = NewCaches()
	}
	// A malformed hierarchy (zero ways, unknown policy, bad temp hints) would
	// otherwise panic deep in cache construction on the worker; requests come
	// off the wire, so refuse them with an error instead.
	if verr := req.Config.Hier.Validate(); verr != nil {
		return nil, fmt.Errorf("exp: measurement %s/%s config invalid: %w", req.App.Name, req.Kind, verr)
	}
	c := &Context{
		Seed:        req.Seed,
		WarmupArch:  req.WarmupArch,
		WarmArch:    req.WarmArch,
		MeasureArch: req.MeasureArch,
		ProfilePlan: req.ProfilePlan,
		HighFanout:  req.HighFanout,
		Workers:     workers,
		caches:      caches,
	}
	if ctx != nil {
		c.SetRunContext(ctx)
		defer func() {
			// A shard skipped by cancellation can surface as a panic when a
			// later stage consumes the discarded artifact; report it as the
			// context error (same contract as exp.RunContext).
			if p := recover(); p != nil {
				if cerr := ctx.Err(); cerr != nil {
					m, err = nil, cerr
					return
				}
				panic(p)
			}
		}()
	}
	m = c.MeasureVariant(workload.App{Params: req.App}, req.Kind, req.Config, req.Collect)
	if cerr := c.Err(); cerr != nil {
		return nil, cerr
	}
	if m == nil {
		return nil, fmt.Errorf("exp: measurement %s/%s produced no result", req.App.Name, req.Kind)
	}
	return m, nil
}

// measurementCost approximates a measurement's retained bytes. Streamed
// (collect=false) measurements retain no slices and no simulator state —
// they cost the fixed struct footprint — while collect=true measurements
// are dominated by their Dyns/Fanouts/Records buffers.
func measurementCost(m *Measurement) int64 {
	const dynBytes = int64(unsafe.Sizeof(trace.Dyn{}))
	const recBytes = int64(unsafe.Sizeof(cpu.Record{}))
	const structBytes = int64(unsafe.Sizeof(Measurement{}))
	return structBytes +
		int64(len(m.Dyns))*dynBytes +
		int64(len(m.Fanouts))*4 +
		int64(len(m.Res.Records))*recBytes
}

// CacheStats reports the engine's memo-cache hit/miss counters.
type CacheStats struct {
	Programs     sched.Stats
	Profiles     sched.Stats
	Variants     sched.Stats
	Measurements sched.Stats
}

// String formats the counters (the -cache-stats view of cmd/criticsim).
func (s CacheStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cache stats:\n")
	fmt.Fprintf(&b, "  programs:     %s\n", s.Programs)
	fmt.Fprintf(&b, "  profiles:     %s\n", s.Profiles)
	fmt.Fprintf(&b, "  variants:     %s\n", s.Variants)
	fmt.Fprintf(&b, "  measurements: %s\n", s.Measurements)
	return b.String()
}

// CacheStats returns the context's current memo counters.
func (c *Context) CacheStats() CacheStats {
	return CacheStats{
		Programs:     c.caches.progs.Stats(),
		Profiles:     c.caches.profs.Stats(),
		Variants:     c.caches.variants.Stats(),
		Measurements: c.caches.meas.Stats(),
	}
}

// Suites returns the three workload suites keyed as the paper labels them.
func Suites() map[string][]workload.App {
	return map[string][]workload.App{
		"android":    workload.MobileApps(),
		"spec.int":   workload.SPECIntApps(),
		"spec.float": workload.SPECFloatApps(),
	}
}

// SuiteOrder is the presentation order of suites.
var SuiteOrder = []string{"spec.int", "spec.float", "android"}

// ForEach runs f over indices 0..n-1 on the context's mapper — the attached
// sched.Mapper when one is set (distributed execution), a locally
// constructed worker pool otherwise — and waits. Results must be written to
// preallocated, index-addressed storage; order-sensitive reductions happen
// after it returns (the sched package's determinism contract).
func (c *Context) ForEach(n int, f func(i int)) {
	if m := c.mapper; m != nil {
		g := f
		if ctx := c.runCtx; ctx != nil {
			// Match the pool's cancellation semantics: stop running queued
			// shards once the context is done (partial results are
			// discarded by the caller).
			g = func(i int) {
				if ctx.Err() != nil {
					return
				}
				f(i)
			}
		}
		m.Map(n, g)
		return
	}
	p := sched.NewPool(c.workers()).Named("exp")
	if c.tel != nil {
		p.Instrument(c.tel.Pool)
	}
	if c.runCtx != nil {
		p.WithContext(c.runCtx)
	}
	p.Map(n, f)
}

// critBreakdown returns the per-stage residency of the high-fanout
// (individually critical) instructions of a measurement, and of its whole
// window — folded online while the window retired (WindowAgg), so it is
// available in both collect modes.
func (c *Context) critBreakdown(m *Measurement) (crit cpu.Breakdown, all cpu.Breakdown, critCount int) {
	return m.Agg.CritBkd, m.Agg.AllBkd, int(m.Agg.CritDyns)
}
