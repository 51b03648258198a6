package exp

import (
	"fmt"
	"strings"

	"critics/internal/cpu"
	"critics/internal/stats"
	"critics/internal/workload"
)

// ---------------------------------------------------------------- Fig. 12a

// Fig12aRow is the result for one exact chain length n.
type Fig12aRow struct {
	N             int
	SpeedupPct    float64 // mean speedup with only length-n chains optimized
	FetchSavedPct float64 // mean reduction of fetch-stall residency (relative %)
	CoverageFrac  float64 // fraction of dynamic instructions in optimized chains
}

// Fig12aResult reproduces Fig. 12a: sensitivity to the individual CritIC
// length.
type Fig12aResult struct {
	Rows  []Fig12aRow
	BestN int
}

// RunFig12a sweeps exact chain lengths 2..8.
func RunFig12a(c *Context) *Fig12aResult {
	apps := workload.MobileApps()
	lengths := []int{2, 3, 4, 5, 6, 7, 8}
	out := &Fig12aResult{}
	type cell struct {
		sp, fetch, cov float64
	}
	grid := make([][]cell, len(lengths))
	for li := range lengths {
		grid[li] = make([]cell, len(apps))
	}
	c.ForEach(len(apps), func(i int) {
		a := apps[i]
		units := []MeasureUnit{{VarBase, cpu.DefaultConfig()}}
		for _, n := range lengths {
			units = append(units, MeasureUnit{fmt.Sprintf("critic-len-%d", n), cpu.DefaultConfig()})
		}
		ms := c.MeasureSweep(a, units, false)
		base := ms[0]
		allB := base.Agg.AllBkd
		baseFrac := 0.0
		if t := allB.Total(); t > 0 {
			baseFrac = float64(allB.FetchI+allB.FetchRD) / float64(t)
		}
		for li := range lengths {
			m := ms[1+li]
			all := m.Agg.AllBkd
			var fetchSaved float64
			if t := all.Total(); t > 0 && baseFrac > 0 {
				frac := float64(all.FetchI+all.FetchRD) / float64(t)
				fetchSaved = 100 * (baseFrac - frac) / baseFrac
			}
			grid[li][i] = cell{
				sp:    Speedup(base, m),
				fetch: fetchSaved,
				cov:   float64(m.Agg.ChainDyns) / float64(m.Res.AllDyns),
			}
		}
	})
	best, bestSp := 0, -1e18
	for li, n := range lengths {
		var sp, fe, cov []float64
		for i := range apps {
			sp = append(sp, grid[li][i].sp)
			fe = append(fe, grid[li][i].fetch)
			cov = append(cov, grid[li][i].cov)
		}
		row := Fig12aRow{N: n, SpeedupPct: stats.Mean(sp), FetchSavedPct: stats.Mean(fe), CoverageFrac: stats.Mean(cov)}
		out.Rows = append(out.Rows, row)
		if row.SpeedupPct > bestSp {
			bestSp = row.SpeedupPct
			best = n
		}
	}
	out.BestN = best
	return out
}

// String formats the figure.
func (r *Fig12aResult) String() string {
	var b strings.Builder
	b.WriteString("Fig 12a: sensitivity to exact CritIC length (mean over mobile apps)\n")
	fmt.Fprintf(&b, "  %-4s %10s %12s %10s\n", "n", "speedup%", "fetchSaved%", "coverage")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-4d %10.2f %12.2f %10.3f\n", row.N, row.SpeedupPct, row.FetchSavedPct, row.CoverageFrac)
	}
	fmt.Fprintf(&b, "  best n = %d (paper: 5)\n", r.BestN)
	return b.String()
}

// ---------------------------------------------------------------- Fig. 12b

// Fig12bRow is the result for one profiling coverage level.
type Fig12bRow struct {
	ProfiledPct int
	SpeedupPct  float64
}

// Fig12bResult reproduces Fig. 12b: sensitivity to how much of the
// execution is profiled.
type Fig12bResult struct {
	Rows []Fig12bRow
}

// RunFig12b sweeps the profiled fraction.
func RunFig12b(c *Context) *Fig12bResult {
	apps := workload.MobileApps()
	fracs := []int{15, 30, 50, 70, 100}
	grid := make([][]float64, len(fracs))
	for fi := range fracs {
		grid[fi] = make([]float64, len(apps))
	}
	c.ForEach(len(apps), func(i int) {
		a := apps[i]
		units := []MeasureUnit{{VarBase, cpu.DefaultConfig()}}
		for _, f := range fracs {
			units = append(units, MeasureUnit{fmt.Sprintf("critic-frac-%d", f), cpu.DefaultConfig()})
		}
		ms := c.MeasureSweep(a, units, false)
		for fi := range fracs {
			grid[fi][i] = Speedup(ms[0], ms[1+fi])
		}
	})
	out := &Fig12bResult{}
	for fi, f := range fracs {
		out.Rows = append(out.Rows, Fig12bRow{ProfiledPct: f, SpeedupPct: stats.Mean(grid[fi])})
	}
	return out
}

// String formats the figure.
func (r *Fig12bResult) String() string {
	var b strings.Builder
	b.WriteString("Fig 12b: sensitivity to profiling coverage (mean speedup %, mobile apps)\n")
	fmt.Fprintf(&b, "  %-12s %10s\n", "profiled%", "speedup%")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12d %10.2f\n", row.ProfiledPct, row.SpeedupPct)
	}
	return b.String()
}
