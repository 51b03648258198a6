// Command perfbench is the repository's benchmark. It measures the CritIC
// pipeline — profile an app, compile its CritICs, simulate the baseline and
// optimized binaries — end to end on three workloads, and layer by layer in
// a separate traced run.
//
//	bash perfbench/run.sh --workload optimize-cold --seed 1 --seconds 30 --trace 0
//
// Workloads (each run executes a fixed op list drawn from --seed, sized so
// it lasts about --seconds on a 2-vCPU host):
//
//   - optimize-cold: one client calling critics.OptimizeApp at quick scale
//     on fresh caches, apps in seeded rounds of all ten. The compile-heavy
//     path: generation, profiling, the CritIC pass and simulation.
//   - sweep-warm: one client calling exp.Context.MeasureSweep over the
//     ablate-fetch grid (4 kinds × 3 fetch widths) on one context whose
//     programs, profiles and variants were built at set-up; each op sets a
//     fresh measurement seed. Simulator and batched-lane time only.
//   - serve-mixed: an in-process criticd driven by an open loop at 100 ops/s:
//     cached optimize jobs, plus chunked uploads of fresh 256 KiB blobs and a
//     periodic artifact GC. BENCHMARK.json does not list it: on a 2-vCPU
//     shared host its millisecond latencies swing with the host's own stalls
//     by more than any bound a gate could use. It runs on request, and every
//     traced run includes a pass of it for the server and artifact layers.
//
// With --trace 0 the last line of standard output is a JSON object holding
// every end-to-end metric. With --trace 1 the named workload runs at full
// length and then the other two in short passes, each with every second op
// traced — spans recorded around the calls into each layer, kept in memory
// and written to .bench_build/spans/ at the end — so every traced run
// reports every per-layer metric. (optimize-cold runs each app three times
// in a row there: through critics.OptimizeApp, to set the layers' time
// against the facade's, and twice as direct calls into the layers, once
// traced and once not, for the tracing overhead.) Which end-to-end metric
// each layer metric should move, and on which workload, is in perLayer
// (metrics.go).
//
// Every op's output is checked: reports and sweep lanes against the values
// recorded in testdata/ (regenerate with -record testdata after a change
// that is meant to alter simulated results), served results against the ones
// fetched at set-up, and uploads against the benchmark's own SHA-256.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// buildDir is where the benchmark writes, relative to the checkout root it
// runs from.
const buildDir = ".bench_build"

// Workload names.
const (
	wlOptimize = "optimize-cold"
	wlSweep    = "sweep-warm"
	wlServe    = "serve-mixed"
)

// workloads in the order traced runs visit them.
var workloads = []struct {
	name string
	run  func(runConfig, *expected) (*phase, map[string]float64, error)
}{
	{wlOptimize, runOptimize},
	{wlSweep, runSweep},
	{wlServe, runServe},
}

// setupReps is how many times an untraced run sets up; setup_s is the median.
const setupReps = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+wlOptimize+", "+wlSweep+" or "+wlServe)
		seed    = flag.Int64("seed", 1, "seed the op list is drawn from")
		seconds = flag.Int("seconds", 30, "roughly how long the timed phase lasts; sizes the fixed op list")
		traced  = flag.Int("trace", 0, "1 for the traced run, which reports per-layer metrics")
		rec     = flag.String("record", "", "record the expected outputs into this directory and exit")
	)
	flag.Parse()
	if *rec != "" {
		if err := record(*rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	idx := -1
	for i, w := range workloads {
		if w.name == name {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	// One simulation thread per CPU the process may run on.
	runtime.GOMAXPROCS(runtime.NumCPU())
	procs := runtime.GOMAXPROCS(0)
	want, err := loadExpected()
	if err != nil {
		return err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# workload %s seed %d seconds %d trace %v gomaxprocs %d\n", name, seed, seconds, traced, procs)
	var res result
	if !traced {
		resetPeakRSS()
		p, _, err := workloads[idx].run(runConfig{seed: seed, seconds: seconds, setups: setupReps}, want)
		if err != nil {
			return err
		}
		vals := p.endToEnd()
		report(&b, name, p)
		printMetrics(&b, append(endToEnd, metricDef{Name: "failed_frac", Unit: "ratio"}), vals)
		res.Attempted, res.Failed = p.attempted, p.failed
		if err := res.fill(endToEnd, vals); err != nil {
			return err
		}
	} else {
		vals := map[string]float64{}
		var recs []*recorder
		// The named workload first and at full length; then the others, short.
		order := append([]int{idx}, otherThan(idx)...)
		for n, i := range order {
			rc := runConfig{seed: seed, seconds: seconds, setups: 1, rec: newRecorder(workloads[i].name)}
			if n > 0 {
				rc.seconds = max(1, seconds/4)
			}
			resetPeakRSS()
			p, layers, err := workloads[i].run(rc, want)
			if err != nil {
				return err
			}
			recs = append(recs, rc.rec)
			report(&b, workloads[i].name, p)
			if n == 0 {
				for k, v := range p.runtimeLayers() {
					layers[k] = v
				}
			}
			for k, v := range layers {
				if _, ok := vals[k]; !ok {
					vals[k] = v
				}
			}
			res.Attempted += p.attempted
			res.Failed += p.failed
		}
		printMetrics(&b, perLayer, vals)
		path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := writeTrace(path, recs); err != nil {
			return err
		}
		fmt.Fprintf(&b, "# spans written to %s\n", path)
		if err := res.fill(perLayer, vals); err != nil {
			return err
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Print(b.String())
	fmt.Println(string(line))
	return nil
}

// report appends a pass's op counts, notes and first failure.
func report(b *strings.Builder, name string, p *phase) {
	fmt.Fprintf(b, "# %s: %d ops, %d failed, %d set-ups\n", name, p.attempted, p.failed, len(p.setupS))
	for _, n := range p.notes {
		fmt.Fprintf(b, "#   %s\n", n)
	}
	if p.firstFailure != "" {
		fmt.Fprintf(b, "#   first failure: %s\n", p.firstFailure)
	}
}

func otherThan(idx int) []int {
	var out []int
	for i := range workloads {
		if i != idx {
			out = append(out, i)
		}
	}
	return out
}
