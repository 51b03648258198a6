package exp

import (
	"fmt"
	"strings"

	"critics/internal/cache"
	"critics/internal/cpu"
	"critics/internal/layout"
	"critics/internal/stats"
	"critics/internal/telemetry"
	"critics/internal/workload"
)

// LayoutSuffix separates a compiler variant kind from its code-layout pass
// in composed kinds like "critic+lay-c3". The composed string is the memo
// and wire identity of the variant, so the layout axis flows through the
// measurement caches, batched sweeps and distributed execution with no
// request-shape change.
const LayoutSuffix = "+lay-"

// FrontendKind composes a variant kind with a layout pass ("", "none" and
// KindNone leave the kind unchanged — the seed layout).
func FrontendKind(kind, lay string) string {
	if lay == "" || lay == layout.KindNone {
		return kind
	}
	return kind + LayoutSuffix + lay
}

// splitLayoutKind splits "critic+lay-c3" into ("critic", "c3", true).
func splitLayoutKind(kind string) (inner, lay string, ok bool) {
	i := strings.LastIndex(kind, LayoutSuffix)
	if i < 0 {
		return "", "", false
	}
	return kind[:i], kind[i+len(LayoutSuffix):], true
}

// FrontendPolicies lists the I-cache replacement policies the front-end
// sweep covers, in presentation order.
func FrontendPolicies() []string {
	return []string{cache.PolicyLRU, cache.PolicySRRIP, cache.PolicyTRRIP}
}

// FrontendLayouts lists the layout passes fig-frontend sweeps (the full
// flag-selectable set is layout.Kinds, which adds "hot").
func FrontendLayouts() []string { return []string{layout.KindNone, layout.KindC3} }

// ValidateFrontend checks a policy/layout pair coming from flags or API
// options before it reaches a panic deep in cache/layout construction.
func ValidateFrontend(policy, lay string) error {
	if policy != "" {
		found := false
		for _, p := range cache.Policies() {
			if p == policy {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("exp: unknown L1I policy %q (known: %v)", policy, cache.Policies())
		}
	}
	if lay != "" {
		found := false
		for _, k := range layout.Kinds() {
			if k == lay {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("exp: unknown code layout %q (known: %v)", lay, layout.Kinds())
		}
	}
	return nil
}

// FrontendConfig returns the Table I baseline with the named replacement
// policy on the L1I. "" and "lru" return the unmodified default so the
// measurement shares cache identity (and bit-identity) with every other
// experiment's default-machine runs. trrip additionally threads temperature
// hints derived from the app's profile over the variant's laid-out code —
// the hints depend on the layout, which is why the variant kind is a
// parameter.
func (c *Context) FrontendConfig(a workload.App, kind, policy string) cpu.Config {
	cfg := cpu.DefaultConfig()
	if policy == "" || policy == cache.PolicyLRU {
		return cfg
	}
	cfg.Hier.L1I.Policy = policy
	if policy == cache.PolicyTRRIP {
		p, _ := c.Variant(a, kind)
		cfg.Hier.Temps = layout.Temperatures(p, c.Profile(a, false, 1))
	}
	return cfg
}

// FrontendCell is one (policy, layout) point of the front-end sweep, mean
// over the mobile apps, simulating the CritIC binary.
type FrontendCell struct {
	Policy string
	Layout string

	L1IMissPct  float64 // L1I misses / accesses
	FetchIPct   float64 // F.StallForI share of the §II-D stage dwell
	DFetchIPP   float64 // FetchIPct delta vs the lru/none cell, percentage points
	SpeedupPct  float64 // cycle speedup vs the lru/none cell
	BaselineIPC float64
}

// FrontendResult is the fig-frontend report: the co-optimization grid.
type FrontendResult struct {
	Cells []FrontendCell
}

// RunFigFrontend sweeps I-cache replacement policy × code layout over the
// mobile apps' CritIC binaries and reports stall-attribution deltas — the
// front-end co-optimization experiment. All policies of one layout share a
// trace key (the layout changes the program, the policy only the machine),
// so each layout's policies build as mixed-policy lockstep lanes of one
// cpu.BatchSim; the lru/none cell is the default-machine CritIC measurement
// every other figure already memoizes.
func RunFigFrontend(c *Context) *FrontendResult {
	apps := workload.MobileApps()
	pols := FrontendPolicies()
	lays := FrontendLayouts()
	type cell struct{ miss, fetchI, ipc, cycles float64 }
	ncell := len(pols) * len(lays)
	grid := make([][]cell, ncell)
	for i := range grid {
		grid[i] = make([]cell, len(apps))
	}
	c.ForEach(len(apps), func(ai int) {
		a := apps[ai]
		units := make([]MeasureUnit, 0, ncell)
		for _, lay := range lays {
			kind := FrontendKind(VarCritIC, lay)
			for _, pol := range pols {
				units = append(units, MeasureUnit{Kind: kind, Cfg: c.FrontendConfig(a, kind, pol)})
			}
		}
		ms := c.MeasureSweep(a, units, false)
		for i, m := range ms {
			var miss float64
			if m.Res.ICacheAccesses > 0 {
				miss = 100 * float64(m.Res.ICacheMisses) / float64(m.Res.ICacheAccesses)
			}
			var fi float64
			if tot := m.Agg.AllBkd.Total(); tot > 0 {
				fi = 100 * float64(m.Agg.AllBkd.FetchI) / float64(tot)
			}
			grid[i][ai] = cell{miss: miss, fetchI: fi, ipc: m.Res.IPC(), cycles: float64(m.Res.Cycles)}
		}
	})

	out := &FrontendResult{}
	var refFetchI float64
	var refCycles []float64
	for li, lay := range lays {
		for pi, pol := range pols {
			i := li*len(pols) + pi
			var miss, fi, ipc, cyc []float64
			for ai := range apps {
				miss = append(miss, grid[i][ai].miss)
				fi = append(fi, grid[i][ai].fetchI)
				ipc = append(ipc, grid[i][ai].ipc)
				cyc = append(cyc, grid[i][ai].cycles)
			}
			fc := FrontendCell{
				Policy:      pol,
				Layout:      lay,
				L1IMissPct:  stats.Mean(miss),
				FetchIPct:   stats.Mean(fi),
				BaselineIPC: stats.Mean(ipc),
			}
			if i == 0 {
				refFetchI = fc.FetchIPct
				refCycles = cyc
			}
			fc.DFetchIPP = fc.FetchIPct - refFetchI
			var sp []float64
			for ai := range apps {
				if grid[i][ai].cycles > 0 {
					sp = append(sp, 100*(refCycles[ai]/grid[i][ai].cycles-1))
				}
			}
			fc.SpeedupPct = stats.Mean(sp)
			out.Cells = append(out.Cells, fc)
			if c.tel != nil {
				lp := []telemetry.Label{telemetry.L("policy", pol), telemetry.L("layout", lay)}
				c.tel.reg.Counter("critics_frontend_measurements_total",
					"Front-end sweep measurements taken, by policy and layout.", lp...).
					Add(int64(len(apps)))
				c.tel.reg.Gauge("critics_frontend_l1i_miss_bp",
					"Mean L1I miss rate of the front-end sweep cell, basis points (1/100 percent).", lp...).
					Set(int64(100*fc.L1IMissPct + 0.5))
				c.tel.reg.Gauge("critics_frontend_fetch_stall_bp",
					"Mean F.StallForI share of the stage dwell for the front-end sweep cell, basis points.", lp...).
					Set(int64(100*fc.FetchIPct + 0.5))
			}
		}
	}
	return out
}

// String formats the front-end grid.
func (r *FrontendResult) String() string {
	var b strings.Builder
	b.WriteString("Fig. FE: I-cache replacement x code layout (CritIC binary, mean over mobile apps)\n")
	fmt.Fprintf(&b, "  %-8s %-6s %10s %12s %8s %10s %8s\n",
		"policy", "layout", "L1I miss%", "F.StallForI%", "Δpp", "speedup%", "IPC")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-8s %-6s %10.3f %12.2f %8.2f %10.2f %8.3f\n",
			c.Policy, c.Layout, c.L1IMissPct, c.FetchIPct, c.DFetchIPP, c.SpeedupPct, c.BaselineIPC)
	}
	b.WriteString("  (Δpp and speedup vs the lru/none cell; trrip seeds insertion re-reference intervals\n")
	b.WriteString("   from profile temperature, c3 clusters call-affine functions after hoisting)\n")
	return b.String()
}
