// Package critics is a full reproduction of "CritICs: Critiquing Criticality
// in Mobile Apps" (MICRO 2018): identification of Critical Instruction
// Chains in mobile workloads and a compiler pass that hoists them and emits
// them in the 16-bit Thumb format behind a CDP decoder mode switch, nearly
// doubling their fetch bandwidth.
//
// This top-level package is the user-facing API. It wires together the
// subsystems in internal/: synthetic workload generation (the substitute for
// Play Store apps and SPEC), trace generation, DFG analysis, the CritIC
// profiler, the compiler passes, a cycle-level out-of-order CPU model with
// caches/branch prediction/LPDDR3 DRAM, an energy model, and the experiment
// runners that regenerate every table and figure of the paper's evaluation.
//
// Quick start:
//
//	report, err := critics.OptimizeApp("acrobat")
//	fmt.Println(report)
//
// or reproduce a specific figure:
//
//	out, err := critics.Experiment("fig10a")
//	fmt.Print(out)
package critics

import (
	"context"
	"fmt"
	"io"
	"strings"

	"critics/internal/binimg"
	"critics/internal/compiler"
	"critics/internal/core"
	"critics/internal/cpu"
	"critics/internal/energy"
	"critics/internal/exp"
	"critics/internal/fleet"
	"critics/internal/layout"
	"critics/internal/prog"
	"critics/internal/sched"
	"critics/internal/sketch"
	"critics/internal/telemetry"
	"critics/internal/trace"
	"critics/internal/workload"
)

// Report summarizes one end-to-end optimization of an app: profile →
// compile → simulate baseline and CritIC binaries over identical work.
type Report struct {
	App string

	// Profile.
	UniqueChains    int
	SelectedChains  int
	ProfileCoverage float64 // fraction of profiled stream in selected chains
	ThumbRepresent  float64 // fraction of candidates passing the 16-bit rule
	CompilerSummary string
	CodeBytesBefore uint32
	CodeBytesAfter  uint32
	ChainsHoisted   int
	ChainsConverted int

	// Simulation.
	BaselineCycles int64
	CritICCycles   int64
	BaselineIPC    float64
	CritICIPC      float64
	SpeedupPct     float64

	// Energy.
	SystemEnergySavingPct float64
	CPUEnergySavingPct    float64
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "app %s\n", r.App)
	fmt.Fprintf(&b, "  profile:  %d unique chains, %d selected, coverage %.1f%%, 16-bit representable %.1f%%\n",
		r.UniqueChains, r.SelectedChains, 100*r.ProfileCoverage, 100*r.ThumbRepresent)
	fmt.Fprintf(&b, "  compile:  %s\n", r.CompilerSummary)
	fmt.Fprintf(&b, "  code:     %d -> %d bytes\n", r.CodeBytesBefore, r.CodeBytesAfter)
	fmt.Fprintf(&b, "  cycles:   %d -> %d (IPC %.3f -> %.3f)\n", r.BaselineCycles, r.CritICCycles, r.BaselineIPC, r.CritICIPC)
	fmt.Fprintf(&b, "  speedup:  %.2f%%\n", r.SpeedupPct)
	fmt.Fprintf(&b, "  energy:   system -%.2f%%, CPU-side -%.2f%%\n", r.SystemEnergySavingPct, r.CPUEnergySavingPct)
	return b.String()
}

// Option adjusts the experiment scale.
type Option func(*exp.Context)

// WithQuickScale shrinks windows for fast runs (tests, demos).
func WithQuickScale() Option {
	return func(c *exp.Context) {
		q := exp.QuickContext()
		c.WarmupArch = q.WarmupArch
		c.WarmArch = q.WarmArch
		c.MeasureArch = q.MeasureArch
		c.ProfilePlan = q.ProfilePlan
	}
}

// WithMeasureInstrs sets the measured window size in architectural
// instructions.
func WithMeasureInstrs(n int) Option {
	return func(c *exp.Context) { c.MeasureArch = n }
}

// WithWorkers bounds the worker pool experiments shard their per-app work
// over. 0 selects GOMAXPROCS; 1 forces the serial reference schedule.
// Results are bit-identical for every value.
func WithWorkers(n int) Option {
	return func(c *exp.Context) { c.Workers = n }
}

// WithFrontend selects the front-end machine/binary variant the pipeline
// simulates: an L1I replacement policy (FrontendPolicies; "" keeps the
// Table I lru baseline) and a profile-guided code-layout pass run after the
// CritIC compiler (CodeLayouts; "" keeps the generator's program order).
// Both apply to the baseline and CritIC measurements alike, so reported
// speedups stay like-for-like. Invalid names surface as errors from the
// call the option is passed to.
func WithFrontend(policy, layout string) Option {
	return func(c *exp.Context) {
		c.L1IPolicy = policy
		c.CodeLayout = layout
	}
}

// FrontendPolicies lists the selectable L1I replacement policies.
func FrontendPolicies() []string { return exp.FrontendPolicies() }

// CodeLayouts lists the selectable profile-guided code-layout passes.
func CodeLayouts() []string { return layout.Kinds() }

// WithTelemetry attaches a metrics registry: simulator stall attribution,
// cache/BPU event counts, memo-cache and pool state, and per-experiment
// wall times become scrapable (e.g. via criticsim -metrics-addr). Telemetry
// never changes results — only counters are written.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *exp.Context) { c.SetTelemetry(reg) }
}

// WithTracer attaches a Chrome trace-event tracer; the engine emits
// wall-clock spans for experiments and memo lookups (labeled hit/miss)
// while it is set. Pipeline (cycle-domain) timelines are exported by
// TraceApp.
func WithTracer(tr *telemetry.Tracer) Option {
	return func(c *exp.Context) { c.SetTracer(tr) }
}

// WithRemoteExecution routes the call's expensive work to a worker fleet:
// measurement units (profile→compile→simulate, the dominant cost of every
// experiment) dispatch through rm — typically a *dist.Coordinator — and,
// when mapper is non-nil, shard maps run on it instead of a local pool so
// many units are on the wire at once. Results are bit-identical to local
// execution (the dist package's determinism test enforces it); a dispatch
// failure falls back to computing locally. Either argument may be nil to
// enable only half the wiring.
func WithRemoteExecution(rm exp.Remote, mapper sched.Mapper) Option {
	return func(c *exp.Context) {
		if rm != nil {
			c.SetRemote(rm)
		}
		if mapper != nil {
			c.SetMapper(mapper)
		}
	}
}

// SharedCaches is an opaque handle to a process-wide artifact cache bundle:
// generated programs, profiles, compiled variants and simulated
// measurements, content-addressed by their full configuration. Attach one to
// many calls (WithSharedCaches) and repeated work — e.g. many service
// requests for the same app — is served from memory. Safe for concurrent
// use; builds are single-flight.
type SharedCaches struct{ caches *exp.Caches }

// NewSharedCaches returns an empty shared cache bundle.
func NewSharedCaches() *SharedCaches {
	return &SharedCaches{caches: exp.NewCaches()}
}

// Stats reports the bundle's hit/miss counters.
func (s *SharedCaches) Stats() exp.CacheStats { return s.caches.Stats() }

// EnableMeasurementSpill routes measurement-cache values the retention
// budget would drop through st — typically an artifact-store adapter
// (artifact.NewMemoSpill) — so a long-lived service degrades to
// decode-from-store instead of re-simulation. Call before the bundle sees
// traffic.
func (s *SharedCaches) EnableMeasurementSpill(st sched.SpillStore) {
	s.caches.EnableMeasurementSpill(st)
}

// WithSharedCaches makes the call reuse (and populate) the shared bundle
// instead of a private per-call cache. Results are unchanged — caching only
// affects wall-clock.
func WithSharedCaches(s *SharedCaches) Option {
	return func(c *exp.Context) { c.UseCaches(s.caches) }
}

// newCtx builds a context with options applied.
func newCtx(opts ...Option) *exp.Context {
	c := exp.NewContext()
	for _, o := range opts {
		o(c)
	}
	return c
}

// Apps returns the names of the ten mobile apps of Table II.
func Apps() []string {
	apps := workload.MobileApps()
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.Params.Name
	}
	return names
}

// AppNames returns every runnable app name in catalog presentation order
// (SPEC suites first, then the mobile apps) — the names OptimizeApp,
// BuildProfile, TraceApp and the serving API accept.
func AppNames() []string {
	var names []string
	for _, suite := range exp.SuiteOrder {
		for _, a := range exp.Suites()[suite] {
			names = append(names, a.Params.Name)
		}
	}
	return names
}

// OptimizeApp runs the full CritIC pipeline on one mobile app (or SPEC
// workload) and reports the outcome.
func OptimizeApp(name string, opts ...Option) (*Report, error) {
	return OptimizeAppContext(context.Background(), name, opts...)
}

// OptimizeAppContext is OptimizeApp with cancellation: a cancelled or
// expired ctx aborts the run between pipeline stages (and stops shard
// dispatch inside them) and returns ctx's error. Partial artifacts are never
// retained in the memo caches.
func OptimizeAppContext(ctx context.Context, name string, opts ...Option) (*Report, error) {
	rep, _, err := optimizeApp(ctx, name, false, opts...)
	return rep, err
}

// optimizeApp is the shared pipeline behind OptimizeApp and TraceApp;
// collect keeps per-instruction records on the two measurements so a trace
// export can follow from the memo cache.
func optimizeApp(ctx context.Context, name string, collect bool, opts ...Option) (rep *Report, rec *exp.Context, err error) {
	app, ok := workload.FindApp(name)
	if !ok {
		return nil, nil, fmt.Errorf("critics: unknown app %q (mobile apps: %v)", name, Apps())
	}
	defer recoverCancelled(ctx, &err)
	ec := newCtx(opts...)
	ec.SetRunContext(ctx)
	if err := exp.ValidateFrontend(ec.L1IPolicy, ec.CodeLayout); err != nil {
		return nil, nil, fmt.Errorf("critics: %w", err)
	}
	baseKind := exp.FrontendKind(exp.VarBase, ec.CodeLayout)
	critKind := exp.FrontendKind(exp.VarCritIC, ec.CodeLayout)

	// Each stage may return a zero value when ctx is cancelled mid-build, so
	// cancellation is checked before any stage output is consumed.
	base := ec.Program(app)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// The baseline measurement needs only the program, so it runs as one
	// shard beside the other, profile → compile → CritIC measurement. With
	// one worker the shards run in index order: baseline first. Every stage
	// is a memoized pure function of its key, so the overlap changes
	// wall-clock only.
	var (
		prof        *core.Profile
		optimized   *prog.Program
		st          compiler.Stats
		mBase, mOpt *exp.Measurement
	)
	ec.ForEach(2, func(i int) {
		if i == 0 {
			mBase = ec.MeasureVariant(app, baseKind, ec.FrontendConfig(app, baseKind, ec.L1IPolicy), collect)
			return
		}
		if prof = ec.Profile(app, false, 1); ctx.Err() != nil {
			return
		}
		if optimized, st = ec.Variant(app, critKind); ctx.Err() != nil {
			return
		}
		mOpt = ec.MeasureVariant(app, critKind, ec.FrontendConfig(app, critKind, ec.L1IPolicy), collect)
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	eBase := energy.Compute(&mBase.Res, energy.DefaultConfig())
	eOpt := energy.Compute(&mOpt.Res, energy.DefaultConfig())
	sav := energy.ComputeSavings(eBase, eOpt)

	return &Report{
		App:                   name,
		UniqueChains:          prof.UniqueChains(),
		SelectedChains:        len(prof.Selected()),
		ProfileCoverage:       prof.SelectedCoverage,
		ThumbRepresent:        prof.ThumbRepresentableFrac(),
		CompilerSummary:       st.String(),
		CodeBytesBefore:       base.CodeBytes,
		CodeBytesAfter:        optimized.CodeBytes,
		ChainsHoisted:         st.ChainsHoisted,
		ChainsConverted:       st.ChainsConverted,
		BaselineCycles:        mBase.Res.Cycles,
		CritICCycles:          mOpt.Res.Cycles,
		BaselineIPC:           mBase.Res.IPC(),
		CritICIPC:             mOpt.Res.IPC(),
		SpeedupPct:            exp.Speedup(mBase, mOpt),
		SystemEnergySavingPct: sav.TotalPct,
		CPUEnergySavingPct:    sav.CPUOnlyPct,
	}, ec, nil
}

// Chrome-trace process ids of TraceApp's cycle-domain pipeline timelines
// (telemetry.EnginePID carries the wall-clock engine spans).
const (
	baselinePID = 10
	criticPID   = 11
)

// TraceApp runs the same pipeline as OptimizeApp and streams a Chrome
// trace-event JSON document to w (open the file in Perfetto or
// chrome://tracing): per-instruction stage timelines of the measured window
// for the baseline and CritIC binaries — stall intervals under the paper's
// §II-D attribution taxonomy, CDP mode-switch and mispredict-redirect
// markers, fetch-buffer/ROB occupancy — plus wall-clock engine spans
// (profile, compile, measure; memo lookups labeled hit/miss). The caller
// owns closing w.
func TraceApp(name string, w io.Writer, opts ...Option) (*Report, error) {
	return TraceAppContext(context.Background(), name, w, opts...)
}

// TraceAppContext is TraceApp with cancellation (see OptimizeAppContext for
// the semantics). A cancelled run may have written a partial trace document
// to w; the caller should discard it.
func TraceAppContext(ctx context.Context, name string, w io.Writer, opts ...Option) (*Report, error) {
	tr := telemetry.NewTracer(w)
	tr.MetaProcessName(telemetry.EnginePID, "engine (wall-clock µs)")
	opts = append(opts, WithTracer(tr))
	rep, ec, err := optimizeApp(ctx, name, true, opts...)
	if err != nil {
		return nil, err
	}
	app, _ := workload.FindApp(name)
	baseKind := exp.FrontendKind(exp.VarBase, ec.CodeLayout)
	critKind := exp.FrontendKind(exp.VarCritIC, ec.CodeLayout)
	mBase := ec.MeasureVariant(app, baseKind, ec.FrontendConfig(app, baseKind, ec.L1IPolicy), true)
	mOpt := ec.MeasureVariant(app, critKind, ec.FrontendConfig(app, critKind, ec.L1IPolicy), true)
	cpu.ExportWindow(tr, baselinePID, name+" baseline pipeline (ts in cycles)", mBase.Dyns, mBase.Res.Records)
	cpu.ExportWindow(tr, criticPID, name+" critic pipeline (ts in cycles)", mOpt.Dyns, mOpt.Res.Records)
	if err := tr.Close(); err != nil {
		return nil, err
	}
	return rep, nil
}

// Experiment runs one of the paper's tables/figures by id (e.g. "fig10a",
// "tab1") and returns its formatted report. For running several experiments,
// prefer a Session, which caches programs, profiles and compiled variants
// across runs.
func Experiment(id string, opts ...Option) (string, error) {
	return exp.Run(id, newCtx(opts...))
}

// ExperimentContext is Experiment with cancellation: a cancelled or expired
// ctx stops shard dispatch, discards partial artifacts instead of caching
// them, and returns ctx's error with no output.
func ExperimentContext(ctx context.Context, id string, opts ...Option) (string, error) {
	return exp.RunContext(ctx, id, newCtx(opts...))
}

// Session caches generated programs, profiles and compiled variants across
// experiment runs.
type Session struct {
	ctx *exp.Context
}

// NewSession creates a session with the given scale options.
func NewSession(opts ...Option) *Session {
	return &Session{ctx: newCtx(opts...)}
}

// Experiment runs one experiment id within the session.
func (s *Session) Experiment(id string) (string, error) {
	return exp.Run(id, s.ctx)
}

// Context exposes the underlying experiment context for advanced use from
// within this module (examples, benchmarks).
func (s *Session) Context() *exp.Context { return s.ctx }

// CacheStats reports the session's memo-cache hit/miss counters: how often
// programs, profiles, compiled variants and measurements were reused across
// the experiments run so far.
func (s *Session) CacheStats() exp.CacheStats { return s.ctx.CacheStats() }

// ExperimentIDs lists the available experiment ids.
func ExperimentIDs() []string { return exp.IDs() }

// BuildProfile profiles an app and returns the CritIC profile (the artifact
// cmd/criticprof serializes).
func BuildProfile(name string, opts ...Option) (*core.Profile, error) {
	return BuildProfileContext(context.Background(), name, opts...)
}

// BuildProfileContext is BuildProfile with cancellation (see
// OptimizeAppContext for the semantics).
func BuildProfileContext(ctx context.Context, name string, opts ...Option) (prof *core.Profile, err error) {
	app, ok := workload.FindApp(name)
	if !ok {
		return nil, fmt.Errorf("critics: unknown app %q", name)
	}
	defer recoverCancelled(ctx, &err)
	ec := newCtx(opts...)
	ec.SetRunContext(ctx)
	prof = ec.Profile(app, false, 1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return prof, nil
}

// FleetConverge runs the iterative fleet optimizer for one app against a
// device-consensus profile sketch (see internal/fleet): generations of
// candidate CritIC selection policies are measured through the memoized
// sweep path and A/B-scored against the fleet's observed dynamic stream
// until the winner stabilizes. Cancellation semantics match
// OptimizeAppContext.
func FleetConverge(ctx context.Context, name string, consensus *sketch.Sketch, fopts fleet.ConvergeOptions, opts ...Option) (rep *fleet.Report, err error) {
	app, ok := workload.FindApp(name)
	if !ok {
		return nil, fmt.Errorf("critics: unknown app %q", name)
	}
	defer recoverCancelled(ctx, &err)
	ec := newCtx(opts...)
	ec.SetRunContext(ctx)
	rep, err = fleet.Converge(ctx, ec, app, consensus, fopts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// recoverCancelled converts a panic raised by a pipeline stage that consumed
// a discarded, cancellation-invalidated artifact (memo lookups return zero
// values once the run context is cancelled) back into ctx's error. Panics on
// a live context are real bugs and propagate.
func recoverCancelled(ctx context.Context, err *error) {
	if p := recover(); p != nil {
		if cerr := ctx.Err(); cerr != nil {
			*err = cerr
			return
		}
		panic(p)
	}
}

// CompileWithProfile applies the CritIC pass to an app's program under an
// explicit profile (e.g. one loaded from disk) and returns the pass stats.
func CompileWithProfile(name string, prof *core.Profile) (compiler.Stats, error) {
	app, ok := workload.FindApp(name)
	if !ok {
		return compiler.Stats{}, fmt.Errorf("critics: unknown app %q", name)
	}
	p := workload.Generate(app.Params)
	_, st, err := compiler.ApplyCritIC(p, prof, compiler.Options{MaxLen: 5, Switch: compiler.SwitchCDP})
	return st, err
}

// ScanInputs assembles an app's unoptimized binary image and a window of n
// executed instruction addresses — the (image, trace) upload pair the
// source-free scanning service consumes (server KindScan, criticctl scan).
// The unoptimized binary is deliberately the baseline one: scanning it shows
// the missed-CritIC surface the compiler pass would have claimed.
func ScanInputs(name string, n int) (img []byte, addrs []uint32, err error) {
	app, ok := workload.FindApp(name)
	if !ok {
		return nil, nil, fmt.Errorf("critics: unknown app %q", name)
	}
	p := workload.Generate(app.Params)
	img, err = binimg.Assemble(p)
	if err != nil {
		return nil, nil, err
	}
	g := trace.NewGenerator(p, app.Params.Seed)
	dyns := g.Generate(nil, n)
	addrs = make([]uint32, len(dyns))
	for i := range dyns {
		addrs[i] = dyns[i].Addr
	}
	return img, addrs, nil
}

// TraceSample generates a window of dynamic execution for an app — handy for
// external analyses built on this library.
func TraceSample(name string, n int) ([]trace.Dyn, error) {
	app, ok := workload.FindApp(name)
	if !ok {
		return nil, fmt.Errorf("critics: unknown app %q", name)
	}
	p := workload.Generate(app.Params)
	g := trace.NewGenerator(p, app.Params.Seed)
	g.Skip(5000)
	return g.Generate(nil, n), nil
}
