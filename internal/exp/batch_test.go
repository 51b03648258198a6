package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"critics/internal/cpu"
	"critics/internal/telemetry"
	"critics/internal/trace"
	"critics/internal/workload"
)

// batchEquivCtx returns a reduced-scale context for the batched-vs-serial
// equivalence sweeps. serial forces the per-variant reference schedule.
func batchEquivCtx(serial bool) *Context {
	c := QuickContext()
	c.WarmupArch = 2_000
	c.WarmArch = 3_000
	c.MeasureArch = 6_000
	c.ProfilePlan = trace.SamplePlan{Samples: 3, Length: 8_000, Gap: 2_000, Warmup: 2_000}
	c.serialSweeps = serial
	return c
}

// simCounterSums reads the simulator telemetry the equivalence contract
// covers: cycle/instruction totals, the per-stage stall attribution sums,
// and the cache/branch event counters.
func simCounterSums(tel *Telemetry) map[string]int64 {
	m := tel.Sim
	out := map[string]int64{
		"cycles":    m.Cycles.Value(),
		"instrs":    m.Instrs.Value(),
		"windows":   m.Windows.Value(),
		"cond":      m.CondBranches.Value(),
		"mispred":   m.Mispredicts.Value(),
		"cdp":       m.CDPSwitches.Value(),
		"l1i_acc":   m.L1IAccesses.Value(),
		"l1i_miss":  m.L1IMisses.Value(),
		"l1d_acc":   m.L1DAccesses.Value(),
		"l1d_miss":  m.L1DMisses.Value(),
		"l2_acc":    m.L2Accesses.Value(),
		"dram_acc":  m.DRAMAccesses.Value(),
		"fetch_cnt": m.FetchBytesUsed.Count(),
		"fetch_sum": int64(m.FetchBytesUsed.Sum()),
	}
	for i, s := range m.Stall {
		out[fmt.Sprintf("stall%d", i)] = s.Value()
	}
	return out
}

// TestCatalogBatchedEquivalence runs every experiment id in the registry on
// two independent cache bundles — the batched sweep path and the forced
// per-variant serial reference — and requires byte-identical report output
// plus exactly equal simulator telemetry sums (stall attribution included).
// It also asserts the batched path actually engaged, so the comparison can
// never pass vacuously.
func TestCatalogBatchedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep; skipped in -short")
	}
	serial := batchEquivCtx(true)
	serialReg := telemetry.NewRegistry()
	serial.SetTelemetry(serialReg)

	batched := batchEquivCtx(false)
	batchedReg := telemetry.NewRegistry()
	batched.SetTelemetry(batchedReg)

	for _, id := range IDs() {
		want, err := Run(id, serial)
		if err != nil {
			t.Fatalf("%s (serial): %v", id, err)
		}
		got, err := Run(id, batched)
		if err != nil {
			t.Fatalf("%s (batched): %v", id, err)
		}
		if got != want {
			t.Errorf("%s: batched output differs from serial\n--- serial ---\n%s\n--- batched ---\n%s",
				id, want, got)
		}
	}

	if n := serial.tel.BatchedMeasurements.Value(); n != 0 {
		t.Errorf("serial reference context built %d batched measurements, want 0", n)
	}
	if n := batched.tel.BatchedMeasurements.Value(); n == 0 {
		t.Error("batched context never engaged the batched path — the equivalence sweep is vacuous")
	}

	ws, wb := simCounterSums(serial.tel), simCounterSums(batched.tel)
	for k, v := range ws {
		if wb[k] != v {
			t.Errorf("telemetry %s: batched sum %d != serial sum %d", k, wb[k], v)
		}
	}
}

// catalogBatchGroups are the sweep shapes the runners actually issue: the
// fig11 hardware sweep (7 machine configs per variant), the ablate-fetch
// width sweep, the ablate-cdp bubble pair, and an interleaved-kind grid (every
// kind at every fetch width, kinds alternating) — the shape of perfbench's
// sweep grid, which MeasureSweep regroups into one batch per kind.
func catalogBatchGroups() []struct {
	name  string
	units []MeasureUnit
} {
	hw := []cpu.Config{cpu.DefaultConfig()}
	for _, mech := range HWMechs {
		hw = append(hw, ApplyHW(mech))
	}
	var widths []cpu.Config
	for _, w := range []int{8, 12, 16} {
		cfg := cpu.DefaultConfig()
		cfg.FetchBytes = w
		widths = append(widths, cfg)
	}
	free := cpu.DefaultConfig()
	free.CDPExtraDecodeCycle = false
	paid := cpu.DefaultConfig()
	paid.CDPExtraDecodeCycle = true
	one := func(kind string, cfgs ...cpu.Config) []MeasureUnit {
		us := make([]MeasureUnit, len(cfgs))
		for i, cfg := range cfgs {
			us[i] = MeasureUnit{kind, cfg}
		}
		return us
	}
	var grid []MeasureUnit
	for _, cfg := range widths {
		for _, kind := range []string{VarBase, VarCritIC, VarOPP16, VarHoist} {
			grid = append(grid, MeasureUnit{kind, cfg})
		}
	}
	return []struct {
		name  string
		units []MeasureUnit
	}{
		{"fig11-base", one(VarBase, hw...)},
		{"fig11-critic", one(VarCritIC, hw...)},
		{"ablate-fetch", one(VarOPP16, widths...)},
		{"ablate-cdp", one(VarCritIC, free, paid)},
		{"interleaved-grid", grid},
	}
}

// TestMeasureSweepGoldenEncode compares, for the catalog's batch group shapes
// and both collect modes, each batched Measurement against an independent
// uncached Measure call — on the JSON wire encoding, byte for byte, which
// covers Res, the WindowAgg fold, and (collect=true) the kept window.
func TestMeasureSweepGoldenEncode(t *testing.T) {
	a, ok := workload.FindApp("acrobat")
	if !ok {
		t.Fatal("catalog app missing")
	}
	for _, g := range catalogBatchGroups() {
		for _, collect := range []bool{false, true} {
			// Fresh bundles per run so every lane is a true cache miss and
			// the batched build is forced (K >= 2 misses per kind).
			cb := batchEquivCtx(false)
			cb.SetTelemetry(telemetry.NewRegistry())
			ms := cb.MeasureSweep(a, g.units, collect)
			if n, want := cb.tel.BatchedMeasurements.Value(), int64(len(g.units)); n != want {
				t.Fatalf("%s collect=%v: %d batched measurements, want %d (every lane batched)",
					g.name, collect, n, want)
			}

			cs := batchEquivCtx(true)
			for i, u := range g.units {
				p, _ := cs.Variant(a, u.Kind)
				want := cs.Measure(p, u.Cfg, collect)
				gj, err := json.Marshal(ms[i])
				if err != nil {
					t.Fatalf("%s lane %d: encode batched: %v", g.name, i, err)
				}
				wj, err := json.Marshal(want)
				if err != nil {
					t.Fatalf("%s lane %d: encode serial: %v", g.name, i, err)
				}
				if !bytes.Equal(gj, wj) {
					t.Errorf("%s collect=%v lane %d: batched Measurement encoding differs from independent Measure",
						g.name, collect, i)
				}
			}
		}
	}
}

// TestMeasureSweepCacheInterop checks the memo interplay: batched builds
// publish per-variant entries that later single-variant lookups hit, and
// pre-cached variants are served without joining a batch.
func TestMeasureSweepCacheInterop(t *testing.T) {
	a, ok := workload.FindApp("acrobat")
	if !ok {
		t.Fatal("catalog app missing")
	}
	c := batchEquivCtx(false)
	cfgs := []cpu.Config{cpu.DefaultConfig(), ApplyHW(HW2xFD), ApplyHW(HWPerfectBr)}
	units := make([]MeasureUnit, len(cfgs))
	for i, cfg := range cfgs {
		units[i] = MeasureUnit{VarBase, cfg}
	}

	// Warm one variant through the single-variant path first.
	single := c.MeasureVariant(a, VarBase, cfgs[1], false)

	ms := c.MeasureSweep(a, units, false)
	if ms[1] != single {
		t.Error("sweep did not serve the pre-cached variant from the memo")
	}

	// Every lane the sweep built must now hit as a single-variant lookup —
	// same pointer, no rebuild.
	for i, cfg := range cfgs {
		if m := c.MeasureVariant(a, VarBase, cfg, false); m != ms[i] {
			t.Errorf("lane %d: single-variant lookup missed the sweep-published entry", i)
		}
	}

	// In-sweep duplicates resolve to one shared measurement.
	dup := c.MeasureSweep(a, []MeasureUnit{units[0], units[0]}, false)
	if dup[0] != dup[1] {
		t.Error("duplicate units in one sweep produced distinct measurements")
	}
}
