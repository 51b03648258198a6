package critics

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"critics/internal/cpu"
	"critics/internal/exp"
)

// sweepConfigs is the fig11 hardware sweep shape: the default machine plus
// every Fig. 11 mechanism, all measuring the same variant trace — the
// canonical batched-sweep workload.
func sweepConfigs() []cpu.Config {
	cfgs := []cpu.Config{cpu.DefaultConfig()}
	for _, mech := range exp.HWMechs {
		cfgs = append(cfgs, exp.ApplyHW(mech))
	}
	return cfgs
}

// BenchmarkSweepSerial measures the serial reference: one uncached Measure
// per machine configuration, each paying its own trace-generation and fanout
// pass. Per-iteration context setup (program generation) is excluded from
// the timer.
func BenchmarkSweepSerial(b *testing.B) {
	app := acrobatProgram()
	cfgs := sweepConfigs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx := exp.QuickContext()
		p := ctx.Program(*app)
		b.StartTimer()
		for _, cfg := range cfgs {
			ctx.Measure(p, cfg, false)
		}
	}
}

// BenchmarkSweepBatched measures the batched sweep path: all configurations
// of the variant build as lockstep BatchSim lanes over one shared trace pass
// (exp.MeasureSweep on a cold measurement cache). Output is bit-identical to
// the serial path — see TestCatalogBatchedEquivalence — so ns/op against
// BenchmarkSweepSerial is the sweep speedup. The lanes simulate concurrently,
// so the ratio scales with cores: on one core only the shared generation and
// fanout work is saved.
func BenchmarkSweepBatched(b *testing.B) {
	app := acrobatProgram()
	var units []exp.MeasureUnit
	for _, cfg := range sweepConfigs() {
		units = append(units, exp.MeasureUnit{Kind: exp.VarBase, Cfg: cfg})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx := exp.QuickContext()
		ctx.Program(*app)
		b.StartTimer()
		ctx.MeasureSweep(*app, units, false)
	}
}

// sweepBenchEntry is one benchmark's line in BENCH_sweep.json.
type sweepBenchEntry struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
	MsPerOp     float64 `json:"ms_per_op"`
}

// sweepBenchReport is the schema of BENCH_sweep.json — the repo's sweep
// throughput trajectory, written by TestWriteSweepBench in CI.
type sweepBenchReport struct {
	Lanes      int             `json:"lanes"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Serial     sweepBenchEntry `json:"serial"`
	Batched    sweepBenchEntry `json:"batched"`
	Speedup    float64         `json:"speedup"`
}

func toEntry(r testing.BenchmarkResult) sweepBenchEntry {
	return sweepBenchEntry{
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		N:           r.N,
		MsPerOp:     float64(r.NsPerOp()) / 1e6,
	}
}

// batchedSweepAllocCeiling bounds allocs/op of the batched sweep build. The
// batch allocates per lane (simulator, cache hierarchy sets, predictor
// tables) and per chunk buffer, never per instruction; the measured number at
// quick scale is ~36k, dominated by 7 lanes of hierarchy construction. The
// ceiling has ~2x slack while still catching any per-instruction allocation
// regression (the sweep simulates ~400k dyns per op, so even 1 alloc per
// dyn would blow past it tenfold).
const batchedSweepAllocCeiling = 75_000

// TestWriteSweepBench runs the sweep benchmark pair once and writes
// BENCH_sweep.json (ns/op, allocs/op, speedup, GOMAXPROCS) to the path named
// by the BENCH_SWEEP_OUT environment variable; unset, the test is skipped.
// It also asserts the batched path's allocation ceiling, so the CI step that
// produces the trajectory file doubles as the allocation guard.
func TestWriteSweepBench(t *testing.T) {
	out := os.Getenv("BENCH_SWEEP_OUT")
	if out == "" {
		t.Skip("BENCH_SWEEP_OUT not set")
	}
	serial := testing.Benchmark(BenchmarkSweepSerial)
	batched := testing.Benchmark(BenchmarkSweepBatched)
	if a := batched.AllocsPerOp(); a > batchedSweepAllocCeiling {
		t.Errorf("batched sweep allocates %d/op, ceiling %d", a, batchedSweepAllocCeiling)
	}
	rep := sweepBenchReport{
		Lanes:      len(sweepConfigs()),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Serial:     toEntry(serial),
		Batched:    toEntry(batched),
	}
	if b := batched.NsPerOp(); b > 0 {
		rep.Speedup = float64(serial.NsPerOp()) / float64(b)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("sweep bench: serial %.1fms/op, batched %.1fms/op, speedup %.2fx (GOMAXPROCS=%d)",
		rep.Serial.MsPerOp, rep.Batched.MsPerOp, rep.Speedup, rep.GoMaxProcs)
}
