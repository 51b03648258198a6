package exp

import (
	"fmt"
	"strings"

	"critics/internal/cpu"
	"critics/internal/stats"
	"critics/internal/workload"
)

// Fig13Row is one scheme's mean result: speedup and the fraction of dynamic
// instructions executed from the 16-bit format.
type Fig13Row struct {
	Scheme       string
	SpeedupPct   float64
	ThumbDynFrac float64
}

// Fig13Result reproduces Fig. 13a/13b: criticality-agnostic Thumb conversion
// versus CritIC.
type Fig13Result struct {
	Rows []Fig13Row
}

// fig13Schemes maps presentation names to variant kinds.
var fig13Schemes = []struct{ name, kind string }{
	{"OPP16", VarOPP16},
	{"Compress", VarCompress},
	{"CritIC", VarCritIC},
	{"OPP16+CritIC", VarOPP16CritIC},
}

// RunFig13 measures the opportunistic conversion schemes.
func RunFig13(c *Context) *Fig13Result {
	apps := workload.MobileApps()
	grid := make([][]float64, len(fig13Schemes))
	thumb := make([][]float64, len(fig13Schemes))
	for si := range fig13Schemes {
		grid[si] = make([]float64, len(apps))
		thumb[si] = make([]float64, len(apps))
	}
	c.ForEach(len(apps), func(i int) {
		a := apps[i]
		units := []MeasureUnit{{VarBase, cpu.DefaultConfig()}}
		for _, sch := range fig13Schemes {
			units = append(units, MeasureUnit{sch.kind, cpu.DefaultConfig()})
		}
		ms := c.MeasureSweep(a, units, false)
		base := ms[0]
		for si := range fig13Schemes {
			m := ms[1+si]
			grid[si][i] = Speedup(base, m)
			if arch := m.Res.AllDyns - m.Agg.OverheadDyns; arch > 0 {
				thumb[si][i] = float64(m.Agg.ThumbArch) / float64(arch)
			}
		}
	})
	out := &Fig13Result{}
	for si, sch := range fig13Schemes {
		out.Rows = append(out.Rows, Fig13Row{
			Scheme:       sch.name,
			SpeedupPct:   stats.Mean(grid[si]),
			ThumbDynFrac: stats.Mean(thumb[si]),
		})
	}
	return out
}

// String formats the figure.
func (r *Fig13Result) String() string {
	var b strings.Builder
	b.WriteString("Fig 13: opportunistic 16-bit conversion vs CritIC (mean over mobile apps)\n")
	fmt.Fprintf(&b, "  %-14s %10s %16s\n", "scheme", "speedup%", "dyn 16-bit frac")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14s %10.2f %16.3f\n", row.Scheme, row.SpeedupPct, row.ThumbDynFrac)
	}
	return b.String()
}

// ---------------------------------------------------------------- Tables

// Table1String renders the baseline configuration (Table I).
func Table1String() string {
	cfg := cpu.DefaultConfig()
	var b strings.Builder
	b.WriteString("Table I: baseline simulation configuration\n")
	fmt.Fprintf(&b, "  CPU:    %d-wide Fetch/Decode/Rename/Issue/Commit; %d ROB; %d IQ; %d LSQ; fetch port %dB/cycle\n",
		cfg.FetchWidth, cfg.ROBSize, cfg.IQSize, cfg.LSQSize, cfg.FetchBytes)
	fmt.Fprintf(&b, "  FUs:    %d int ALU, %d mul/div, %d FP, %d mem ports\n", cfg.IntALUs, cfg.MulDivUs, cfg.FPUs, cfg.MemPorts)
	fmt.Fprintf(&b, "  BPU:    %d-entry two-level tournament, %d history bits; %d-cycle redirect\n",
		cfg.BPU.Entries, cfg.BPU.HistoryBits, cfg.MispredictPenalty)
	fmt.Fprintf(&b, "  L1I:    %dKB %d-way, %d-cycle hit; L1D: %dKB %d-way, %d-cycle hit\n",
		cfg.Hier.L1I.SizeBytes>>10, cfg.Hier.L1I.Ways, cfg.Hier.L1I.HitLat,
		cfg.Hier.L1D.SizeBytes>>10, cfg.Hier.L1D.Ways, cfg.Hier.L1D.HitLat)
	fmt.Fprintf(&b, "  L2:     %dMB %d-way, %d-cycle hit, CLPT prefetcher (%d entries)\n",
		cfg.Hier.L2.SizeBytes>>20, cfg.Hier.L2.Ways, cfg.Hier.L2.HitLat, cfg.Hier.CLPTEntries)
	fmt.Fprintf(&b, "  DRAM:   LPDDR3 %d ch x %d ranks x %d banks; tCL/tRP/tRCD = %d/%d/%d cycles (13ns @1.5GHz)\n",
		cfg.Hier.DRAM.Channels, cfg.Hier.DRAM.RanksPerChan, cfg.Hier.DRAM.BanksPerRank,
		cfg.Hier.DRAM.TCL, cfg.Hier.DRAM.TRP, cfg.Hier.DRAM.TRCD)
	return b.String()
}

// Table2String renders the workload catalog (Table II).
func Table2String() string {
	var b strings.Builder
	b.WriteString("Table II: workloads\n")
	b.WriteString("  Mobile apps:\n")
	for _, a := range workload.MobileApps() {
		p := a.Params
		fmt.Fprintf(&b, "    %-14s funcs=%-4d chainProb=%.2f chainLen=%d-%d hubFanout=%d-%d cold=%.2f\n",
			p.Name, p.NumFuncs, p.ChainProb, p.ChainLen[0], p.ChainLen[1], p.HubFanout[0], p.HubFanout[1], p.ColdFrac)
	}
	b.WriteString("  SPEC.int:   ")
	for _, a := range workload.SPECIntApps() {
		fmt.Fprintf(&b, "%s ", a.Params.Name)
	}
	b.WriteString("\n  SPEC.float: ")
	for _, a := range workload.SPECFloatApps() {
		fmt.Fprintf(&b, "%s ", a.Params.Name)
	}
	b.WriteString("\n")
	return b.String()
}
