package exp

import (
	"fmt"
	"strings"

	"critics/internal/cpu"
	"critics/internal/stats"
	"critics/internal/workload"
)

// HWMech names a hardware fetch/backend mechanism of §IV-G.
type HWMech string

// The hardware mechanisms compared in Fig. 11.
const (
	HW2xFD        HWMech = "2xFD"
	HW4xICache    HWMech = "4xICache"
	HWEFetch      HWMech = "EFetch"
	HWPerfectBr   HWMech = "PerfectBr"
	HWBackendPrio HWMech = "BackendPrio"
	HWAll         HWMech = "AllHW"
)

// HWMechs is the presentation order.
var HWMechs = []HWMech{HW2xFD, HW4xICache, HWEFetch, HWPerfectBr, HWBackendPrio, HWAll}

// ApplyHW returns a core configuration with the mechanism enabled.
func ApplyHW(m HWMech) cpu.Config {
	cfg := cpu.DefaultConfig()
	switch m {
	case HW2xFD:
		cfg.FetchBytes *= 2
		cfg.FetchWidth *= 2
		cfg.DecodeWidth *= 2
		cfg.Hier.L1I.HitLat = 1
	case HW4xICache:
		cfg.Hier.L1I.SizeBytes *= 4
	case HWEFetch:
		cfg.Hier.EFetchDepth = 4
	case HWPerfectBr:
		cfg.BPU.Perfect = true
	case HWBackendPrio:
		cfg.BackendPrio = true
	case HWAll:
		cfg.Hier.L1I.SizeBytes *= 4
		cfg.Hier.EFetchDepth = 4
		cfg.BPU.Perfect = true
		cfg.BackendPrio = true
	}
	return cfg
}

// Fig11Row is one mechanism's mean result across the mobile apps.
type Fig11Row struct {
	Mech          HWMech
	AlonePct      float64 // mechanism alone
	WithCritICPct float64 // mechanism + CritIC binary

	// Fig. 11b: fetch-stall residency fractions under the mechanism.
	FStallForI, FStallForRD float64
}

// Fig11Result reproduces Fig. 11a/11b.
type Fig11Result struct {
	CritICAlonePct float64 // software-only CritIC for reference
	BaseFI, BaseRD float64
	Rows           []Fig11Row
}

// RunFig11 compares the hardware mechanisms with and without CritIC.
func RunFig11(c *Context) *Fig11Result {
	apps := workload.MobileApps()
	nm := len(HWMechs)

	type appOut struct {
		critic float64
		alone  [8]float64
		with   [8]float64
		fi     [8]float64
		rd     [8]float64
		baseFI float64
		baseRD float64
	}
	outs := make([]appOut, len(apps))
	c.ForEach(len(apps), func(i int) {
		a := apps[i]

		// All seven machine configurations of a variant share its trace, so
		// each variant is one batched build (a 7-lane BatchSim on a cache-cold
		// context) instead of seven trace passes.
		cfgs := make([]cpu.Config, 1+nm)
		cfgs[0] = cpu.DefaultConfig()
		for mi, mech := range HWMechs {
			cfgs[1+mi] = ApplyHW(mech)
		}
		baseMs := c.MeasureBatch(a, VarBase, cfgs, false)
		critMs := c.MeasureBatch(a, VarCritIC, cfgs, false)

		base := baseMs[0]
		outs[i].critic = Speedup(base, critMs[0])
		_, allB, _ := c.critBreakdown(base)
		if t := allB.Total(); t > 0 {
			outs[i].baseFI = float64(allB.FetchI) / float64(t)
			outs[i].baseRD = float64(allB.FetchRD) / float64(t)
		}

		for mi := range HWMechs {
			mAlone := baseMs[1+mi]
			outs[i].alone[mi] = Speedup(base, mAlone)
			_, all, _ := c.critBreakdown(mAlone)
			if t := all.Total(); t > 0 {
				outs[i].fi[mi] = float64(all.FetchI) / float64(t)
				outs[i].rd[mi] = float64(all.FetchRD) / float64(t)
			}
			outs[i].with[mi] = Speedup(base, critMs[1+mi])
		}
	})

	res := &Fig11Result{}
	var critics []float64
	for i := range outs {
		critics = append(critics, outs[i].critic)
		res.BaseFI += outs[i].baseFI / float64(len(outs))
		res.BaseRD += outs[i].baseRD / float64(len(outs))
	}
	res.CritICAlonePct = stats.Mean(critics)
	for mi := 0; mi < nm; mi++ {
		var alone, with, fi, rd []float64
		for i := range outs {
			alone = append(alone, outs[i].alone[mi])
			with = append(with, outs[i].with[mi])
			fi = append(fi, outs[i].fi[mi])
			rd = append(rd, outs[i].rd[mi])
		}
		res.Rows = append(res.Rows, Fig11Row{
			Mech:          HWMechs[mi],
			AlonePct:      stats.Mean(alone),
			WithCritICPct: stats.Mean(with),
			FStallForI:    stats.Mean(fi),
			FStallForRD:   stats.Mean(rd),
		})
	}
	return res
}

// String formats the figure.
func (r *Fig11Result) String() string {
	var b strings.Builder
	b.WriteString("Fig 11a: hardware mechanisms vs CritIC (mean speedup %, mobile apps)\n")
	fmt.Fprintf(&b, "  %-14s %10s %14s\n", "mechanism", "alone%", "withCritIC%")
	fmt.Fprintf(&b, "  %-14s %10.2f %14s\n", "CritIC(SW)", r.CritICAlonePct, "-")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14s %10.2f %14.2f\n", row.Mech, row.AlonePct, row.WithCritICPct)
	}
	b.WriteString("Fig 11b: fetch-stall residency under each mechanism (fractions; baseline first)\n")
	fmt.Fprintf(&b, "  %-14s %12s %14s\n", "mechanism", "F.StallForI", "F.StallForR+D")
	fmt.Fprintf(&b, "  %-14s %12.3f %14.3f\n", "baseline", r.BaseFI, r.BaseRD)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14s %12.3f %14.3f\n", row.Mech, row.FStallForI, row.FStallForRD)
	}
	return b.String()
}
