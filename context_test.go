package critics

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestContextPreCancelled: a cancelled context fails every context-taking
// entry point quickly with the context's error, not a partial result.
func TestContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	t0 := time.Now()
	if _, err := OptimizeAppContext(ctx, "acrobat", WithQuickScale()); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimizeAppContext: %v, want context.Canceled", err)
	}
	if _, err := BuildProfileContext(ctx, "acrobat", WithQuickScale()); !errors.Is(err, context.Canceled) {
		t.Errorf("BuildProfileContext: %v, want context.Canceled", err)
	}
	if _, err := ExperimentContext(ctx, "tab1", WithQuickScale()); !errors.Is(err, context.Canceled) {
		t.Errorf("ExperimentContext: %v, want context.Canceled", err)
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Errorf("pre-cancelled calls took %v; cancellation is not early", elapsed)
	}
}

// TestContextWrappersIdentical: the context-free wrappers are the
// background-context calls — same report either way.
func TestContextWrappersIdentical(t *testing.T) {
	direct, err := OptimizeApp("maps", WithQuickScale())
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := OptimizeAppContext(context.Background(), "maps", WithQuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if direct.String() != viaCtx.String() {
		t.Errorf("wrapper and context call disagree:\n%s\nvs\n%s", direct, viaCtx)
	}
}

// TestSharedCachesAcrossCalls: a SharedCaches bundle carries artifacts
// between otherwise independent calls, and a cancelled call does not poison
// it for the next one.
func TestSharedCachesAcrossCalls(t *testing.T) {
	shared := NewSharedCaches()
	if _, err := OptimizeApp("acrobat", WithQuickScale(), WithSharedCaches(shared)); err != nil {
		t.Fatal(err)
	}
	before := shared.Stats()
	if _, err := OptimizeApp("acrobat", WithQuickScale(), WithSharedCaches(shared)); err != nil {
		t.Fatal(err)
	}
	after := shared.Stats()
	if after.Measurements.Hits <= before.Measurements.Hits {
		t.Errorf("no measurement cache hits on the repeat call: %+v -> %+v", before, after)
	}

	// A cancelled run against the same bundle must not retain partial
	// artifacts that would corrupt a later clean run.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OptimizeAppContext(ctx, "music", WithQuickScale(), WithSharedCaches(shared)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled shared-cache run: %v", err)
	}
	clean, err := OptimizeApp("music", WithQuickScale(), WithSharedCaches(shared))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := OptimizeApp("music", WithQuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if clean.String() != direct.String() {
		t.Errorf("shared caches after a cancelled run corrupt results:\n%s\nvs\n%s", clean, direct)
	}
}

// TestOptimizeAppDeadlineSweep cuts OptimizeAppContext at deadlines spread
// over a whole run, serially (Workers 1) and with the baseline measurement
// overlapping the profile → compile → CritIC chain (Workers 2). Every call
// must end with context.DeadlineExceeded or with the uncancelled report,
// leave no goroutine behind, and a SharedCaches bundle the cancelled runs
// wrote to must still serve the clean report.
func TestOptimizeAppDeadlineSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline repeatedly")
	}
	opts := []Option{WithQuickScale(), WithMeasureInstrs(10_000)}
	goroutines := runtime.NumGoroutine()
	t0 := time.Now()
	want, err := OptimizeApp("maps", opts...)
	if err != nil {
		t.Fatal(err)
	}
	full := time.Since(t0)

	const steps = 6
	check := func(what string, d time.Duration, more ...Option) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		got, err := OptimizeAppContext(ctx, "maps", append(append([]Option{}, opts...), more...)...)
		switch {
		case err != nil && !errors.Is(err, context.DeadlineExceeded):
			t.Errorf("%s, deadline %v: %v, want context.DeadlineExceeded or a report", what, d, err)
		case err == nil && fmt.Sprintf("%+v", *got) != fmt.Sprintf("%+v", *want):
			t.Errorf("%s, deadline %v: report differs from the uncancelled one:\n%+v\nvs\n%+v", what, d, *got, *want)
		}
	}
	for _, workers := range []int{1, 2} {
		for k := 0; k <= steps; k++ {
			check(fmt.Sprintf("workers=%d", workers), full*time.Duration(k)/steps+time.Microsecond, WithWorkers(workers))
		}
	}
	shared := NewSharedCaches()
	for k := 0; k < steps; k++ {
		check("shared caches", full*time.Duration(k)/steps+time.Microsecond, WithWorkers(2), WithSharedCaches(shared))
	}
	clean, err := OptimizeApp("maps", append(opts, WithSharedCaches(shared))...)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", *clean) != fmt.Sprintf("%+v", *want) {
		t.Errorf("shared caches after cancelled runs serve a different report:\n%+v\nvs\n%+v", *clean, *want)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines left running after the sweep, %d before it", n, goroutines)
	}
}

// TestOptimizeAppWorkersIdentical: the serial schedule and the default one,
// which overlaps the baseline measurement with the CritIC chain, give
// byte-identical reports for every mobile app.
func TestOptimizeAppWorkersIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline for every app")
	}
	for _, app := range Apps() {
		serial, err := OptimizeApp(app, WithQuickScale(), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		def, err := OptimizeApp(app, WithQuickScale())
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", *serial) != fmt.Sprintf("%+v", *def) {
			t.Errorf("%s: Workers 1 and the default disagree:\n%+v\nvs\n%+v", app, *serial, *def)
		}
	}
}
