package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"critics"
	"critics/internal/exp"
	"critics/internal/workload"
)

// The expected outputs of every input the workloads can draw, recorded at the
// commit that added the benchmark (-record). A change to the program must
// reproduce them exactly: speed work may not move a simulated statistic.
//
//go:embed testdata/optimize.json testdata/sweep.json
var expectedFS embed.FS

// reportKey is the part of an OptimizeApp report each op checks.
type reportKey struct {
	BaselineCycles  int64  `json:"baseline_cycles"`
	CritICCycles    int64  `json:"critic_cycles"`
	CodeBytesBefore uint32 `json:"code_bytes_before"`
	CodeBytesAfter  uint32 `json:"code_bytes_after"`
}

func keyOf(r *critics.Report) reportKey {
	return reportKey{r.BaselineCycles, r.CritICCycles, r.CodeBytesBefore, r.CodeBytesAfter}
}

// sweepKey is the expected outcome of one sweep-warm op: every lane's
// cycles, and a digest over every lane's cycles and WindowAgg.
type sweepKey struct {
	Seed   int64   `json:"seed"`
	Cycles []int64 `json:"cycles"`
	Digest string  `json:"digest"`
}

// expected holds the recorded outputs, by app name.
type expected struct {
	Optimize map[string]reportKey
	Sweep    map[string][]sweepKey
}

func loadExpected() (*expected, error) {
	e := &expected{}
	for name, dst := range map[string]any{"testdata/optimize.json": &e.Optimize, "testdata/sweep.json": &e.Sweep} {
		data, err := expectedFS.ReadFile(name)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, dst); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	for _, a := range workload.MobileApps() {
		if _, ok := e.Optimize[a.Params.Name]; !ok {
			return nil, fmt.Errorf("no expected report for %s", a.Params.Name)
		}
		if len(e.Sweep[a.Params.Name]) != sweepSeedsPerApp {
			return nil, fmt.Errorf("expected %d sweep results for %s, have %d", sweepSeedsPerApp, a.Params.Name, len(e.Sweep[a.Params.Name]))
		}
	}
	return e, nil
}

// checkReport compares one op's report with the recorded one.
func (e *expected) checkReport(app string, got reportKey) error {
	if want := e.Optimize[app]; got != want {
		return fmt.Errorf("%s: report %+v, expected %+v", app, got, want)
	}
	return nil
}

// sweepDigest summarises every lane of one sweep op.
func sweepDigest(ms []*exp.Measurement) sweepKey {
	type lane struct {
		Cycles int64         `json:"cycles"`
		Agg    exp.WindowAgg `json:"agg"`
	}
	lanes := make([]lane, len(ms))
	k := sweepKey{Cycles: make([]int64, len(ms))}
	for i, m := range ms {
		lanes[i] = lane{m.Res.Cycles, m.Agg}
		k.Cycles[i] = m.Res.Cycles
	}
	data, _ := json.Marshal(lanes) // plain integer structs always marshal
	h := sha256.Sum256(data)
	k.Digest = hex.EncodeToString(h[:])
	return k
}

// checkSweep compares one op's lanes with the recorded ones.
func (e *expected) checkSweep(app string, seedIdx int, ms []*exp.Measurement) error {
	want := e.Sweep[app][seedIdx]
	for i, m := range ms {
		if m == nil {
			return fmt.Errorf("%s seed %d: lane %d has no measurement", app, want.Seed, i)
		}
	}
	got := sweepDigest(ms)
	if got.Digest != want.Digest {
		return fmt.Errorf("%s seed %d: lanes cycles %v digest %s, expected cycles %v digest %s",
			app, want.Seed, got.Cycles, got.Digest[:12], want.Cycles, want.Digest[:12])
	}
	return nil
}

// record computes every expected output and writes it under dir.
func record(dir string) error {
	opt := map[string]reportKey{}
	sweep := map[string][]sweepKey{}
	ec := sweepContext()
	units := sweepUnits()
	for _, a := range workload.MobileApps() {
		name := a.Params.Name
		rep, err := critics.OptimizeApp(name, critics.WithQuickScale())
		if err != nil {
			return err
		}
		opt[name] = keyOf(rep)
		for j := 0; j < sweepSeedsPerApp; j++ {
			ec.Seed = sweepSeed(j)
			k := sweepDigest(ec.MeasureSweep(a, units, false))
			k.Seed = ec.Seed
			sweep[name] = append(sweep[name], k)
		}
		fmt.Fprintf(os.Stderr, "recorded %s\n", name)
	}
	optData, err := json.MarshalIndent(opt, "", " ")
	if err != nil {
		return err
	}
	// One line per sweep op keeps the file small and its diffs readable.
	var b bytes.Buffer
	b.WriteString("{")
	for i, a := range workload.MobileApps() {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n %q: [", a.Params.Name)
		for j, k := range sweep[a.Params.Name] {
			if j > 0 {
				b.WriteString(",")
			}
			line, err := json.Marshal(k)
			if err != nil {
				return err
			}
			b.WriteString("\n  ")
			b.Write(line)
		}
		b.WriteString("\n ]")
	}
	b.WriteString("\n}\n")
	if err := os.WriteFile(filepath.Join(dir, "optimize.json"), append(optData, '\n'), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "sweep.json"), b.Bytes(), 0o644)
}
