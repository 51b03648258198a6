package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	cases := []struct {
		n      int
		value  float64
		pct    float64
		beyond int
	}{
		{n: 1, value: 1, pct: 100, beyond: 0},
		{n: 10, value: 10, pct: 100, beyond: 0},
		{n: 11, value: 1, pct: 100.0 / 11, beyond: 10},
		{n: 100, value: 90, pct: 90, beyond: 10},
		{n: 2000, value: 1990, pct: 99.5, beyond: 10},
	}
	for _, c := range cases {
		xs := seq(c.n)
		v, pct, beyond := tail(xs)
		if v != c.value || math.Abs(pct-c.pct) > 1e-9 || beyond != c.beyond {
			t.Errorf("tail of 1..%d = (%v, p%v, %d beyond), want (%v, p%v, %d beyond)", c.n, v, pct, beyond, c.value, c.pct, c.beyond)
		}
		above := 0
		for _, x := range xs {
			if x > v {
				above++
			}
		}
		if above != c.beyond {
			t.Errorf("1..%d: %d samples lie beyond the tail %v, reported %d", c.n, above, v, c.beyond)
		}
	}
	if v, _, _ := tail(nil); !math.IsNaN(v) {
		t.Errorf("tail of no samples = %v, want NaN", v)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// A stall in the generator makes the ops behind it late, and openLoop
// reports that lateness while send still sees each op's original due time.
func TestOpenLoopLateness(t *testing.T) {
	const step = 20 * time.Millisecond
	due := []time.Duration{0, step, 2 * step, 3 * step, 10 * step}
	start := time.Now()
	var dues []time.Time
	wait := func(d time.Time) { time.Sleep(time.Until(d)) }
	send := func(i int, d time.Time) {
		dues = append(dues, d)
		if i == 0 {
			time.Sleep(5 * step / 2) // op 0 stalls the loop past ops 1 and 2
		}
	}
	late := openLoop(start, due, func(int) {}, wait, send)

	for i, d := range dues {
		if want := start.Add(due[i]); !d.Equal(want) {
			t.Errorf("op %d was timed from %v after start, want its due time %v", i, d.Sub(start), due[i])
		}
	}
	// Lateness of op i is about 2.5·step − i·step for the two ops the stall
	// overran, and about zero once the loop has caught up.
	wantLate := []float64{0, 1.5 * ms(step), 0.5 * ms(step), 0, 0}
	for i, l := range late {
		if l < wantLate[i]-1 || l > wantLate[i]+ms(step)/2 {
			t.Errorf("op %d late %.2fms, want about %.2fms", i, l, wantLate[i])
		}
	}
}

func TestServeSchedule(t *testing.T) {
	ops := serveOps(rand.New(rand.NewSource(7)), 10*gcEvery*2)
	again := serveOps(rand.New(rand.NewSource(7)), len(ops))
	kinds := map[opKind]int{}
	apps := map[string]int{}
	for i, o := range ops {
		if o != again[i] {
			t.Fatalf("op %d differs between two schedules from one seed: %+v vs %+v", i, o, again[i])
		}
		if want := time.Duration(i) * time.Second / serveRate; o.due != want {
			t.Fatalf("op %d due at %v, want %v", i, o.due, want)
		}
		kinds[o.kind]++
		if o.kind == opRead {
			apps[o.app]++
		}
	}
	if kinds[opWrite] != len(ops)/10 || kinds[opGC] != 2 {
		t.Errorf("schedule of %d ops has %d writes and %d GCs, want %d and 2", len(ops), kinds[opWrite], kinds[opGC], len(ops)/10)
	}
	if len(apps) != 10 {
		t.Errorf("reads cover %d apps, want 10", len(apps))
	}
}

func TestUnattributed(t *testing.T) {
	r := &recorder{
		spans: []span{
			// Group 0: the traced op runs last.
			{ID: 1, Op: 2, Name: "critics.optimize_app", Start: 0, End: 100},
			{ID: 2, Parent: 1, Op: 2, Name: "a", Start: 10, End: 40},
			{ID: 3, Parent: 1, Op: 2, Name: "b", Start: 50, End: 90},
			{ID: 4, Op: 2, Name: "probe", Start: 100, End: 200}, // outside the op
			// Group 1: the traced op runs right after the facade's.
			{ID: 5, Op: 4, Name: "critics.optimize_app", Start: 300, End: 400},
			{ID: 6, Parent: 5, Op: 4, Name: "a", Start: 300, End: 360},
		},
		counts: []count{
			{Op: 0, Name: "critics.optimize_app_ms", Value: 100e-6},
			{Op: 3, Name: "critics.optimize_app_ms", Value: 80e-6},
		},
	}
	got := unattributed(r)
	sort.Float64s(got)
	if len(got) != 2 || math.Abs(got[0]-0.25) > 1e-9 || math.Abs(got[1]-0.3) > 1e-9 {
		t.Errorf("unattributed = %v, want [0.25 0.3]", got)
	}
}

// The metric tables are valid under the contract's naming rules and agree
// with BENCHMARK.json at the root of the repository.
func TestMetricTables(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if err := validateDefs(defs); err != nil {
			t.Error(err)
		}
	}
	for _, bad := range []metricDef{
		{Name: "_x", Unit: "ms", Better: "lower"},
		{Name: "a b", Unit: "ms", Better: "lower"},
		{Name: strings.Repeat("x", 65), Unit: "ms", Better: "lower"},
		{Name: "x", Unit: "milliseconds-long", Better: "lower"},
		{Name: "x", Unit: "ms", Better: "faster"},
	} {
		if validateDefs([]metricDef{bad}) == nil {
			t.Errorf("%+v passed validation", bad)
		}
	}
	if validateDefs([]metricDef{endToEnd[0], endToEnd[0]}) == nil {
		t.Error("a repeated name passed validation")
	}
	known := map[string]bool{wlOptimize: true, wlSweep: true, wlServe: true, "every": true}
	for _, d := range perLayer {
		for _, w := range strings.Split(d.On, ",") {
			if !known[w] {
				t.Errorf("%s: moves on unknown workload %q", d.Name, w)
			}
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark reports %d", len(got), what, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("BENCHMARK.json %s metric %d is %s/%s/%s, the benchmark reports %s/%s/%s", what, i,
					got[i].Name, got[i].Unit, got[i].Better, want[i].Name, want[i].Unit, want[i].Better)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	// BENCHMARK.json lists the workloads whose end-to-end metrics are gated;
	// every one must be a workload the benchmark runs.
	known = map[string]bool{}
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range bench.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json lists workload %q, which the benchmark does not run", w.Name)
		}
	}
}
