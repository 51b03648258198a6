package exp

import (
	"fmt"
	"strings"

	"critics/internal/cpu"
	"critics/internal/stats"
	"critics/internal/workload"
)

// AblateFetchRow is one fetch-port width's result: how the CritIC and OPP16
// speedups scale with the front end's byte bandwidth. This ablation
// quantifies divergences D3/D5 of EXPERIMENTS.md: the narrower the fetch
// port, the more any 16-bit conversion gains — and the more *blind*
// conversion gains relative to targeted conversion.
type AblateFetchRow struct {
	FetchBytes  int
	BaselineIPC float64
	CritICPct   float64
	OPP16Pct    float64
	HoistPct    float64
}

// AblateFetchResult is the fetch-width ablation.
type AblateFetchResult struct {
	Rows []AblateFetchRow
}

// RunAblateFetch sweeps the fetch port width over the mobile apps.
func RunAblateFetch(c *Context) *AblateFetchResult {
	apps := workload.MobileApps()
	widths := []int{8, 12, 16}
	out := &AblateFetchResult{}
	type cell struct{ ipc, critic, opp, hoist float64 }
	grid := make([][]cell, len(widths))
	for wi := range widths {
		grid[wi] = make([]cell, len(apps))
	}
	c.ForEach(len(apps), func(i int) {
		a := apps[i]
		// Each variant kind is measured at all three widths over one shared
		// trace: the sweep helper batches the widths per kind (3-lane builds).
		var units []MeasureUnit
		for _, w := range widths {
			cfg := cpu.DefaultConfig()
			cfg.FetchBytes = w
			units = append(units,
				MeasureUnit{VarBase, cfg}, MeasureUnit{VarCritIC, cfg},
				MeasureUnit{VarOPP16, cfg}, MeasureUnit{VarHoist, cfg})
		}
		ms := c.MeasureSweep(a, units, false)
		for wi := range widths {
			base, mC, mO, mH := ms[4*wi], ms[4*wi+1], ms[4*wi+2], ms[4*wi+3]
			grid[wi][i] = cell{
				ipc:    base.Res.IPC(),
				critic: Speedup(base, mC),
				opp:    Speedup(base, mO),
				hoist:  Speedup(base, mH),
			}
		}
	})
	for wi, w := range widths {
		var ipc, cr, op, ho []float64
		for i := range apps {
			ipc = append(ipc, grid[wi][i].ipc)
			cr = append(cr, grid[wi][i].critic)
			op = append(op, grid[wi][i].opp)
			ho = append(ho, grid[wi][i].hoist)
		}
		out.Rows = append(out.Rows, AblateFetchRow{
			FetchBytes:  w,
			BaselineIPC: stats.Mean(ipc),
			CritICPct:   stats.Mean(cr),
			OPP16Pct:    stats.Mean(op),
			HoistPct:    stats.Mean(ho),
		})
	}
	return out
}

// String formats the ablation.
func (r *AblateFetchResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: fetch-port width vs conversion gains (mean over mobile apps)\n")
	fmt.Fprintf(&b, "  %-12s %10s %10s %10s %10s\n", "fetch B/cyc", "base IPC", "CritIC%", "OPP16%", "Hoist%")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12d %10.3f %10.2f %10.2f %10.2f\n",
			row.FetchBytes, row.BaselineIPC, row.CritICPct, row.OPP16Pct, row.HoistPct)
	}
	b.WriteString("  (narrower port -> bigger conversion gains; blind conversion scales fastest: D3/D5)\n")
	return b.String()
}

// AblateCDPRow is one CDP-cost model's result.
type AblateCDPRow struct {
	Label     string
	CritICPct float64
}

// AblateCDPResult is the CDP decode-cost ablation: the paper conservatively
// charges one extra decode-stage cycle for the mode switch (§IV-B); this
// sweep shows what that conservatism costs, and what the Approach-1
// branch-pair switch costs beyond it.
type AblateCDPResult struct {
	Rows []AblateCDPRow
}

// RunAblateCDP compares switch-cost models over the mobile apps.
func RunAblateCDP(c *Context) *AblateCDPResult {
	apps := workload.MobileApps()
	type variant struct {
		label  string
		kind   string
		bubble bool
	}
	variants := []variant{
		{"CDP, free switch", VarCritIC, false},
		{"CDP, +1 decode bubble", VarCritIC, true},
		{"branch-pair switch", VarCritICBranch, true},
	}
	grid := make([][]float64, len(variants))
	for vi := range variants {
		grid[vi] = make([]float64, len(apps))
	}
	c.ForEach(len(apps), func(i int) {
		a := apps[i]
		units := []MeasureUnit{{VarBase, cpu.DefaultConfig()}}
		for _, v := range variants {
			cfg := cpu.DefaultConfig()
			cfg.CDPExtraDecodeCycle = v.bubble
			units = append(units, MeasureUnit{v.kind, cfg})
		}
		ms := c.MeasureSweep(a, units, false)
		for vi := range variants {
			grid[vi][i] = Speedup(ms[0], ms[1+vi])
		}
	})
	out := &AblateCDPResult{}
	for vi, v := range variants {
		out.Rows = append(out.Rows, AblateCDPRow{Label: v.label, CritICPct: stats.Mean(grid[vi])})
	}
	return out
}

// String formats the ablation.
func (r *AblateCDPResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: format-switch cost models (mean CritIC speedup %, mobile apps)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-24s %8.2f\n", row.Label, row.CritICPct)
	}
	b.WriteString("  (the paper's conservative +1 decode cycle, and Approach 1's branches, both eat into the gain)\n")
	return b.String()
}
