package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"time"
)

// metricDef is one named metric of the benchmark's contract. Later changes
// claim gains by these names, so they are fixed; BENCHMARK.json at the root
// of the repository lists the same names and units (TestMetricTables).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"

	// For a per-layer metric: the end-to-end metric it should move and the
	// workload it moves it on.
	Moves string
	On    string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload. failed_frac is printed beside them but is
// carried in the result's attempted/failed counts, not as a bounded metric:
// it is 0 on a correct run and a relative bound on 0 means nothing.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tail_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
}

// perLayer are the metrics of the traced run (--trace 1), derived from the
// spans and counts the benchmark records around its calls into each layer.
// Every traced run reports all of them: the named workload supplies its own
// layers and short passes of the other two supply theirs.
var perLayer = []metricDef{
	{"workload.generate_ms", "ms", "lower", "throughput_per_s", wlOptimize},
	{"trace.collect_ms", "ms", "lower", "throughput_per_s", wlOptimize},
	{"core.build_profile_ms", "ms", "lower", "throughput_per_s", wlOptimize},
	{"compiler.apply_critic_ms", "ms", "lower", "throughput_per_s", wlOptimize},
	{"compiler.apply_critic_allocs", "count", "lower", "alloc_mb_per_op", wlOptimize},
	{"exp.measure_ms", "ms", "lower", "throughput_per_s", wlOptimize},
	{"cpu.sim_ns_per_instr", "ns", "lower", "throughput_per_s", wlSweep + "," + wlOptimize},
	{"critics.unattributed_frac", "ratio", "lower", "-", wlOptimize},
	{"exp.measure_sweep_ms", "ms", "lower", "throughput_per_s,p50_ms", wlSweep},
	{"exp.batch_lanes", "count", "higher", "throughput_per_s,p50_ms", wlSweep},
	{"trace.window_gen_ms", "ms", "lower", "throughput_per_s", wlSweep},
	{"cpu.sim_ns_per_lane_instr", "ns", "lower", "throughput_per_s", wlSweep},
	{"sched.meas_hit_ratio", "ratio", "lower", "-", wlSweep},
	{"sched.variant_hit_ratio", "ratio", "higher", "-", wlSweep},
	{"server.submit_ms", "ms", "lower", "p50_ms", wlServe},
	{"server.queue_wait_ms", "ms", "lower", "p50_ms", wlServe},
	{"server.compute_ms", "ms", "lower", "p50_ms", wlServe},
	{"server.result_ms", "ms", "lower", "p50_ms", wlServe},
	{"server.rejected_frac", "ratio", "lower", "failed_frac", wlServe},
	{"server.polls_per_job", "count", "lower", "cpu_ms_per_op", wlServe},
	{"artifact.upload_ms", "ms", "lower", "tail_ms", wlServe},
	{"artifact.chunk_ms", "ms", "lower", "tail_ms", wlServe},
	{"artifact.gc_ms", "ms", "lower", "tail_ms", wlServe},
	{"loadgen.late_ms", "ms", "lower", "-", wlServe},
	{"runtime.gc_pause_ms_per_op", "ms", "lower", "tail_ms", "every"},
	{"bench.trace_overhead_frac", "ratio", "lower", "throughput_per_s", "every"},
}

// The contract's naming rules for metric names and units.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs reports the first metric whose name or unit breaks the naming
// rules, or whose name is used twice.
func validateDefs(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		switch {
		case !nameRE.MatchString(d.Name):
			return fmt.Errorf("metric name %q is not valid", d.Name)
		case !unitRE.MatchString(d.Unit):
			return fmt.Errorf("metric %s: unit %q is not valid", d.Name, d.Unit)
		case d.Better != "lower" && d.Better != "higher":
			return fmt.Errorf("metric %s: better must be lower or higher, not %q", d.Name, d.Better)
		case seen[d.Name]:
			return fmt.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// metricValue is one reported value in the result line's wire form.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill copies the named values into r.Metrics in the units defs gives them,
// and fails if any metric of defs is missing.
func (r *result) fill(defs []metricDef, vals map[string]float64) error {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return nil
}

// median returns the middle of xs (the mean of the two middle values for an
// even count), or NaN when xs is empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailMinBeyond is how many samples must lie beyond the reported tail.
const tailMinBeyond = 10

// tail returns the highest percentile of xs that has at least tailMinBeyond
// samples beyond it: the (n-tailMinBeyond)-th smallest sample, which is the
// 100·(n-tailMinBeyond)/n-th percentile. With too few samples for that it
// returns the largest sample, at the 100th percentile with none beyond.
func tail(xs []float64) (value, pct float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	s := sortedCopy(xs)
	if n <= tailMinBeyond {
		return s[n-1], 100, 0
	}
	k := n - tailMinBeyond
	return s[k-1], 100 * float64(k) / float64(n), tailMinBeyond
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// printMetrics writes one "name value unit" line per metric of defs that
// vals holds, in the order of defs.
func printMetrics(b *strings.Builder, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			fmt.Fprintf(b, "%-30s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
}
