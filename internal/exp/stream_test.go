package exp

import (
	"reflect"
	"testing"

	"critics/internal/core"
	"critics/internal/cpu"
	"critics/internal/dfg"
	"critics/internal/prog"
	"critics/internal/trace"
	"critics/internal/workload"
)

// refMeasure is the materialize-everything measurement path, kept inline as
// the reference for the streaming equivalence tests: generate both windows
// up front, compute fanouts over the full slices, simulate, and rebuild the
// window aggregates from the record slice afterwards (independently of the
// OnCommit fold the production path uses).
func refMeasure(c *Context, p *prog.Program, cfg cpu.Config) (cpu.Result, WindowAgg) {
	g := trace.NewGenerator(p, c.Seed)
	g.SkipArch(c.WarmupArch)
	warm := g.GenerateArch(nil, c.WarmArch)
	dyns := g.GenerateArch(nil, c.MeasureArch)
	warmFan := dfg.Fanouts(warm, 128)
	fan := dfg.Fanouts(dyns, 128)

	cfg.CollectRecords = true
	s := cpu.New(cfg)
	s.Run(warm, warmFan)
	res := s.Run(dyns, fan)

	agg := WindowAgg{Threshold: c.HighFanout}
	for k := range res.Records {
		r := &res.Records[k]
		d := &dyns[k]
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
		if fan[k] >= c.HighFanout {
			agg.CritDyns++
			agg.CritBkd.Add(b)
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
	return res, agg
}

// TestMeasureStreamingEquivalence checks, for every app in the catalog and
// both collect modes, that Measure produces exactly the Result and window
// aggregates of the materialize-everything reference path.
func TestMeasureStreamingEquivalence(t *testing.T) {
	c := QuickContext()
	c.WarmupArch = 2_000
	c.WarmArch = 3_000
	c.MeasureArch = 6_000
	for suite, apps := range Suites() {
		for _, a := range apps {
			p := c.Program(a)
			wantRes, wantAgg := refMeasure(c, p, cpu.DefaultConfig())
			for _, collect := range []bool{false, true} {
				m := c.Measure(p, cpu.DefaultConfig(), collect)
				got, want := m.Res, wantRes
				if !collect {
					// The reference always collects records to rebuild the
					// aggregates; the streamed path only keeps them when
					// asked to.
					want.Records = nil
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s collect=%v: Result differs\ngot:  %+v\nwant: %+v",
						suite, a.Params.Name, collect, got, want)
				}
				if m.Agg != wantAgg {
					t.Errorf("%s/%s collect=%v: window aggregates differ\ngot:  %+v\nwant: %+v",
						suite, a.Params.Name, collect, m.Agg, wantAgg)
				}
				if collect {
					if m.Dyns == nil || m.Fanouts == nil || m.Res.Records == nil {
						t.Errorf("%s/%s: collect=true lost its materialized window", suite, a.Params.Name)
					}
				} else if m.Dyns != nil || m.Fanouts != nil || m.Res.Records != nil {
					t.Errorf("%s/%s: collect=false retained window slices", suite, a.Params.Name)
				}
			}
		}
	}
}

// TestMeasureLongWindow scales the measured window an order of magnitude
// past the full-scale default: the streamed path must complete and retain
// nothing but the fixed-size result and aggregates.
func TestMeasureLongWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("long window")
	}
	c := QuickContext()
	c.WarmupArch = 2_000
	c.WarmArch = 3_000
	c.MeasureArch = 1_200_000
	a, ok := workload.FindApp("acrobat")
	if !ok {
		t.Fatal("catalog app missing")
	}
	m := c.Measure(c.Program(a), cpu.DefaultConfig(), false)
	if m.Res.Instrs != int64(c.MeasureArch) {
		t.Fatalf("measured %d architectural instructions, want %d", m.Res.Instrs, c.MeasureArch)
	}
	if m.Dyns != nil || m.Fanouts != nil || m.Res.Records != nil {
		t.Fatal("streamed long window retained per-instruction slices")
	}
	if cost := measurementCost(m); cost > 1<<10 {
		t.Fatalf("streamed measurement retains %d bytes, want O(struct)", cost)
	}
}

// TestProfileStreamingEquivalence checks that the streamed profiler —
// windows generated on a producer goroutine into two reused buffers and
// folded as they arrive — builds exactly the profile core.BuildProfile makes
// from the materialized windows, for every app in the catalog, for ideal
// selection, and for a leading fraction of the windows.
func TestProfileStreamingEquivalence(t *testing.T) {
	c := QuickContext()
	c.ProfilePlan = trace.SamplePlan{Samples: 5, Length: 6_000, Gap: 1_500, Warmup: 2_000}
	for _, suite := range SuiteOrder {
		for _, a := range Suites()[suite] {
			p := c.Program(a)
			ws := trace.Collect(p, a.Params.Seed, c.ProfilePlan)
			for _, tc := range []struct {
				ideal bool
				frac  float64
				n     int
			}{{false, 1, 5}, {true, 1, 5}, {false, 0.5, 3}} {
				cfg := core.DefaultConfig()
				cfg.RequireThumb = !tc.ideal
				want := core.BuildProfile(p, ws[:tc.n], cfg)
				if got := c.Profile(a, tc.ideal, tc.frac); !reflect.DeepEqual(got, want) {
					t.Errorf("%s ideal=%v frac=%v: streamed profile differs (%d vs %d entries, coverage %v vs %v)",
						a.Params.Name, tc.ideal, tc.frac, len(got.Entries), len(want.Entries),
						got.SelectedCoverage, want.SelectedCoverage)
				}
			}
		}
	}
}
