package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is what one workload pass is asked to do.
type runConfig struct {
	seed    int64
	seconds int

	// setups is how many times the pass sets up; setup_s is their median
	// and the last one's state is measured.
	setups int

	// rec, when non-nil, receives spans. Then every second op runs traced
	// and the others untraced, so the same pass also yields the tracing
	// overhead.
	rec *recorder
}

// traced reports whether op i runs traced.
func (rc runConfig) traced(i int) bool {
	return rc.rec != nil && i%2 == 1
}

// scaled returns how many units of nominalMS each fit in the run's seconds,
// at least 1. Op lists are sized from it, so a run does a fixed amount of
// work for a given seed and --seconds however fast the host is today.
func (rc runConfig) scaled(nominalMS float64) int {
	n := int(float64(rc.seconds)*1000/nominalMS + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// phase accumulates one workload pass: its set-ups, then the timed op list.
type phase struct {
	setupS []float64

	start, end time.Time
	cpu0, cpu1 time.Duration
	mem0, mem1 runtime.MemStats

	lat          []float64 // per op, ms, from when the op was due
	attempted    int
	failed       int
	tracedMS     []float64 // latencies of the ops in halfTraced
	untracedMS   []float64 // latencies of the ops in halfUntraced
	notes        []string  // extra human-readable lines
	firstFailure string
}

// setup times one set-up repetition.
func (p *phase) setup(f func() error) error {
	t := time.Now()
	if err := f(); err != nil {
		return err
	}
	p.setupS = append(p.setupS, time.Since(t).Seconds())
	return nil
}

// begin starts the timed phase after a full collection, so garbage left by
// set-up is not charged to the ops.
func (p *phase) begin() {
	runtime.GC()
	runtime.ReadMemStats(&p.mem0)
	p.cpu0 = cpuTime()
	p.start = time.Now()
}

// finish ends the timed phase.
func (p *phase) finish() {
	p.end = time.Now()
	p.cpu1 = cpuTime()
	runtime.ReadMemStats(&p.mem1)
}

// half is the side of the tracing-overhead comparison an op joins. Both
// sides run the same code apart from the recording.
type half int

const (
	halfNone     half = iota // neither: the op runs other code than its pair
	halfUntraced             // the op runs without a recorder
	halfTraced               // the op records spans
)

// halfOf returns the side an op joins when traced and untraced ops differ
// only in whether they record.
func halfOf(traced bool) half {
	if traced {
		return halfTraced
	}
	return halfUntraced
}

// op records one operation of the timed phase and puts its latency into side
// h of the tracing-overhead comparison. A non-nil err counts it as failed;
// its latency is then left out of every distribution.
func (p *phase) op(latMS float64, h half, err error) {
	p.attempted++
	if err != nil {
		p.failed++
		if p.firstFailure == "" {
			p.firstFailure = err.Error()
		}
		return
	}
	p.lat = append(p.lat, latMS)
	switch h {
	case halfTraced:
		p.tracedMS = append(p.tracedMS, latMS)
	case halfUntraced:
		p.untracedMS = append(p.untracedMS, latMS)
	}
}

// endToEnd derives the end-to-end metrics of the pass.
func (p *phase) endToEnd() map[string]float64 {
	ops := float64(p.attempted)
	tailV, pct, beyond := tail(p.lat)
	p.notes = append(p.notes, fmt.Sprintf("tail_ms is p%.2f of %d latency samples (%d beyond it)", pct, len(p.lat), beyond))
	return map[string]float64{
		"setup_s":          median(p.setupS),
		"throughput_per_s": float64(p.attempted-p.failed) / p.end.Sub(p.start).Seconds(),
		"p50_ms":           median(p.lat),
		"tail_ms":          tailV,
		"peak_rss_mb":      peakRSSMB(),
		"alloc_mb_per_op":  float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc) / (1 << 20) / ops,
		"cpu_ms_per_op":    ms(p.cpu1-p.cpu0) / ops,
		"failed_frac":      float64(p.failed) / ops,
	}
}

// runtimeLayers derives the per-layer metrics every workload reports about
// the Go runtime and about tracing itself.
func (p *phase) runtimeLayers() map[string]float64 {
	out := map[string]float64{
		"runtime.gc_pause_ms_per_op": float64(p.mem1.PauseTotalNs-p.mem0.PauseTotalNs) / 1e6 / float64(p.attempted),
	}
	// Throughput of each half is ops per second of op time; the overhead is
	// how much of the untraced half's throughput the traced half loses.
	if t, u := sumOf(p.tracedMS), sumOf(p.untracedMS); t > 0 && u > 0 {
		tput := float64(len(p.tracedMS)) / t
		utput := float64(len(p.untracedMS)) / u
		out["bench.trace_overhead_frac"] = 1 - tput/utput
	}
	return out
}

func sumOf(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS mark, so a pass reports its
// own peak even when an earlier pass in the same process used more.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: peakRSSMB falls back to the process peak
}

// peakRSSMB returns the peak resident set size since the last resetPeakRSS,
// in MiB.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
