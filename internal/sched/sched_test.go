package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"critics/internal/telemetry"
)

func TestMapCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		p := NewPool(workers)
		const n = 57
		var hits [n]atomic.Int32
		p.Map(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestMapZeroAndNegative(t *testing.T) {
	p := NewPool(4)
	ran := false
	p.Map(0, func(int) { ran = true })
	p.Map(-3, func(int) { ran = true })
	if ran {
		t.Error("Map ran f for n <= 0")
	}
}

func TestNewPoolDefaults(t *testing.T) {
	if NewPool(0).Workers() < 1 {
		t.Error("NewPool(0) resolved to < 1 worker")
	}
	if got := NewPool(3).Workers(); got != 3 {
		t.Errorf("Workers() = %d, want 3", got)
	}
}

func TestKeyOfDiscriminates(t *testing.T) {
	type cfg struct {
		A int
		B bool
	}
	k1 := KeyOf("meas", cfg{1, true}, 42)
	k2 := KeyOf("meas", cfg{1, true}, 42)
	if k1 != k2 {
		t.Error("identical inputs produced different keys")
	}
	if k1 == KeyOf("meas", cfg{2, true}, 42) {
		t.Error("field change did not change the key")
	}
	if k1 == KeyOf("prof", cfg{1, true}, 42) {
		t.Error("namespace change did not change the key")
	}
	if k1 == KeyOf("meas", cfg{1, true}) {
		t.Error("dropping a part did not change the key")
	}
}

func TestMemoSingleFlight(t *testing.T) {
	m := NewMemo[int](0)
	var builds atomic.Int32
	k := KeyOf("x")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := m.Get(k, func() int { builds.Add(1); return 7 }, nil)
			if v != 7 {
				t.Errorf("got %d", v)
			}
		}()
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Errorf("built %d times, want 1", builds.Load())
	}
	st := m.Stats()
	if st.Misses != 1 || st.Hits != 31 {
		t.Errorf("stats = %+v, want 1 miss / 31 hits", st)
	}
}

func TestMemoPeek(t *testing.T) {
	m := NewMemo[int](0)
	k := KeyOf("x")
	if _, ok := m.Peek(k); ok {
		t.Error("peek hit on an empty memo")
	}
	// Peek must not block on an in-flight build.
	started := make(chan struct{})
	release := make(chan struct{})
	go m.Get(k, func() int { close(started); <-release; return 7 }, nil)
	<-started
	if _, ok := m.Peek(k); ok {
		t.Error("peek hit on an in-flight build")
	}
	close(release)
	m.Get(k, func() int { return 7 }, nil) // join/observe the finished build
	v, ok := m.Peek(k)
	if !ok || v != 7 {
		t.Errorf("peek after build = %d, %v; want 7, true", v, ok)
	}
	hitsBefore := m.Stats().Hits
	m.Peek(k)
	if m.Stats().Hits != hitsBefore+1 {
		t.Error("successful peek did not count as a hit")
	}
}

func TestMemoBudgetAdmission(t *testing.T) {
	m := NewMemo[int](10)
	cost := func(v int) int64 { return int64(v) }
	m.Get(KeyOf(1), func() int { return 6 }, cost) // retained: used = 6
	m.Get(KeyOf(2), func() int { return 6 }, cost) // over budget: not retained
	if m.Len() != 1 {
		t.Errorf("retained %d entries, want 1", m.Len())
	}
	if m.UsedBytes() != 6 {
		t.Errorf("used = %d, want 6", m.UsedBytes())
	}
	if st := m.Stats(); st.Skipped != 1 {
		t.Errorf("skipped = %d, want 1", st.Skipped)
	}
	// The un-retained key rebuilds on next lookup.
	builds := 0
	m.Get(KeyOf(2), func() int { builds++; return 6 }, cost)
	if builds != 1 {
		t.Error("over-budget value was unexpectedly retained")
	}
	// The retained key still hits.
	m.Get(KeyOf(1), func() int { t.Error("rebuilt retained key"); return 0 }, cost)
}

func TestStatsString(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Errorf("hit rate %f", s.HitRate())
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

// TestPoolMetrics checks the instrumented pool accounts every shard and
// leaves the busy gauge at zero, serially and in parallel.
func TestPoolMetrics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		m := NewPoolMetrics(reg, "test")
		var ran atomic.Int64
		NewPool(workers).Named("test").Instrument(m).Map(100, func(i int) {
			ran.Add(1)
		})
		if ran.Load() != 100 {
			t.Fatalf("workers=%d: ran %d shards, want 100", workers, ran.Load())
		}
		if m.TasksDone.Value() != 100 {
			t.Errorf("workers=%d: tasks done = %d, want 100", workers, m.TasksDone.Value())
		}
		if m.BusyWorkers.Value() != 0 {
			t.Errorf("workers=%d: busy workers = %d after Map returned", workers, m.BusyWorkers.Value())
		}
	}
}

// TestGetHit checks the hit/miss report: builder misses, later callers hit.
func TestGetHit(t *testing.T) {
	m := NewMemo[int](0)
	if _, hit := m.GetHit(KeyOf("k"), func() int { return 1 }, nil); hit {
		t.Error("first lookup reported a hit")
	}
	if v, hit := m.GetHit(KeyOf("k"), func() int { t.Error("rebuilt"); return 0 }, nil); !hit || v != 1 {
		t.Errorf("second lookup: v=%d hit=%v, want 1 true", v, hit)
	}
}

// TestMapShardPanic: a shard panicking on a worker goroutine must not kill
// the process. Map re-raises the first panic on the calling goroutine, and
// only after every in-flight shard has finished, so a caller's recover sees
// it with no shard still running — serially and in parallel.
func TestMapShardPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var running, ran atomic.Int32
		got := func() (p any) {
			defer func() { p = recover() }()
			NewPool(workers).Map(64, func(i int) {
				running.Add(1)
				defer running.Add(-1)
				ran.Add(1)
				if i == 5 {
					panic("shard 5 failed")
				}
				time.Sleep(time.Millisecond)
			})
			return nil
		}()
		if got != "shard 5 failed" {
			t.Fatalf("workers=%d: recovered %v, want the shard's panic value", workers, got)
		}
		if n := running.Load(); n != 0 {
			t.Errorf("workers=%d: %d shards still running when Map re-raised", workers, n)
		}
		if n := ran.Load(); n == 64 {
			t.Errorf("workers=%d: Map kept dispatching all 64 shards after a panic", workers)
		}
	}
}
