// Package cpu is the cycle-level timing model of the baseline platform's
// core (Table I): a 4-wide Fetch/Decode/Rename/ROB/Issue/Execute/Commit
// out-of-order superscalar with a 128-entry ROB, the two-level branch
// predictor (internal/bpu) and the cache/DRAM hierarchy (internal/cache)
// behind it.
//
// The simulator is trace-driven: it consumes the dynamic stream produced by
// internal/trace (control flow and addresses resolved) but models the fetch
// path faithfully — i-cache timing, fetch byte bandwidth, Thumb/CDP decode,
// branch prediction versus actual outcome, and misprediction redirect
// stalls — because the front end is where the paper's action is.
//
// Fetch bandwidth model: the i-cache read port delivers FetchBytes per cycle
// (8 in the baseline, the Cortex-A53-style fetch window), capped at
// FetchWidth instructions. A 32-bit-encoded stream therefore sustains at
// most 2 instructions/cycle into the fetch buffer while 16-bit Thumb code
// sustains 4 — the mechanical root of the paper's "nearly doubles the fetch
// bandwidth" claim.
//
// Per-instruction stall attribution matches the paper's taxonomy (§II-D):
// F.StallForI is the time from when an instruction becomes the next to fetch
// until its bytes enter the fetch buffer (i-cache misses, redirects, byte
// bandwidth); F.StallForR+D is the time it then waits in the fetch buffer
// for the decode stage to drain it (back-pressure).
package cpu

import (
	"sync"

	"critics/internal/bpu"
	"critics/internal/cache"
	"critics/internal/isa"
	"critics/internal/trace"
)

// Config describes the core and its optimization hooks.
type Config struct {
	FetchWidth   int // instructions fetched per cycle (cap)
	FetchBytes   int // bytes fetched per cycle (port width)
	DecodeWidth  int
	RenameWidth  int
	IssueWidth   int
	CommitWidth  int
	ROBSize      int
	IQSize       int
	LSQSize      int
	FetchBufSize int

	IntALUs  int
	MulDivUs int
	FPUs     int
	MemPorts int

	MispredictPenalty int64

	// CDPExtraDecodeCycle charges the 1-cycle decoder bubble the paper
	// conservatively assumes for the CDP mode switch (§IV-B).
	CDPExtraDecodeCycle bool

	BPU  bpu.Config
	Hier cache.HierConfig

	// Optimization hooks (the paper's baselines and comparisons).
	CriticalLoadPrefetch bool // [18]: prefetch loads predicted critical
	BackendPrio          bool // [32]/[33]: issue critical instructions first
	CritFanoutThreshold  int32

	// CollectRecords keeps per-instruction stage timestamps (needed for
	// the Fig. 3 breakdowns; costs memory on big windows).
	CollectRecords bool

	// Metrics, when non-nil, receives per-window aggregates (stall
	// attribution, cache/BPU event counts, fetch-bandwidth utilization)
	// at the end of every Run. Nil disables all instrumentation; the hot
	// loop pays only nil checks (see BenchmarkSimTelemetryOff/On).
	Metrics *Metrics
}

// DefaultConfig returns the Table I baseline.
func DefaultConfig() Config {
	return Config{
		FetchWidth:          4,
		FetchBytes:          8,
		DecodeWidth:         4,
		RenameWidth:         4,
		IssueWidth:          4,
		CommitWidth:         4,
		ROBSize:             128,
		IQSize:              48,
		LSQSize:             32,
		FetchBufSize:        24,
		IntALUs:             3,
		MulDivUs:            1,
		FPUs:                2,
		MemPorts:            2,
		MispredictPenalty:   10,
		CDPExtraDecodeCycle: true,
		BPU:                 bpu.DefaultConfig(),
		Hier:                cache.DefaultHierConfig(),
		CritFanoutThreshold: 8,
	}
}

// Record holds per-instruction stage timestamps (cycles). -1 = not reached.
type Record struct {
	Eligible   int64 // became next-to-fetch
	Fetched    int64 // entered the fetch buffer
	DecodeDone int64 // left the fetch buffer through decode
	Dispatched int64 // renamed into ROB+IQ
	Issued     int64 // selected for execution
	Done       int64 // result available
	Committed  int64

	// Redirected marks a mispredicted branch/return that forced a
	// front-end redirect (trace exports render these as markers).
	Redirected bool
}

// Breakdown is a per-stage cycle attribution (Fig. 3a/3b).
type Breakdown struct {
	FetchI  int64 // F.StallForI
	FetchRD int64 // F.StallForR+D
	Decode  int64 // decode-to-rename wait
	Rename  int64 // dispatch-to-issue-eligibility (ROB/IQ residency before issue)
	Execute int64
	Commit  int64 // completion-to-commit (ROB drain)
}

// Total returns the summed cycles.
func (b Breakdown) Total() int64 {
	return b.FetchI + b.FetchRD + b.Decode + b.Rename + b.Execute + b.Commit
}

// Add accumulates o into b.
func (b *Breakdown) Add(o Breakdown) {
	b.FetchI += o.FetchI
	b.FetchRD += o.FetchRD
	b.Decode += o.Decode
	b.Rename += o.Rename
	b.Execute += o.Execute
	b.Commit += o.Commit
}

// BreakdownOf converts a record into per-stage dwell times.
func BreakdownOf(r *Record) Breakdown {
	clamp := func(v int64) int64 {
		if v < 0 {
			return 0
		}
		return v
	}
	var b Breakdown
	b.FetchI = clamp(r.Fetched - r.Eligible)
	b.FetchRD = clamp(r.DecodeDone - r.Fetched - 1)
	b.Decode = clamp(r.Dispatched - r.DecodeDone - 1)
	b.Rename = clamp(r.Issued - r.Dispatched - 1)
	b.Execute = clamp(r.Done - r.Issued)
	b.Commit = clamp(r.Committed - r.Done)
	return b
}

// Result is the outcome of simulating one window.
type Result struct {
	Cycles  int64
	Instrs  int64 // architectural instructions (CDPs excluded)
	AllDyns int64 // including CDP mode switches

	Mispredicts int64
	CondBr      int64

	// Per-run memory-system event counts (deltas over this Run call; the
	// hierarchy's own counters are cumulative across runs). The energy
	// model consumes these.
	ICacheAccesses int64
	ICacheMisses   int64
	DCacheAccesses int64
	DCacheMisses   int64
	L2Accesses     int64
	DRAMAccesses   int64

	// Records is non-nil when Config.CollectRecords is set; aligned with
	// the input dyn slice.
	Records []Record
}

// IPC returns architectural instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instrs) / float64(r.Cycles)
}

// Sim is the simulator instance. Hierarchy and predictor state persist
// across Run calls, so successive windows see warm caches.
type Sim struct {
	cfg  Config
	hier *cache.Hierarchy
	bpu  *bpu.Predictor

	// Criticality predictor table (PC-indexed), trained at commit from
	// observed fanout — the hardware-table analogue both baseline
	// optimizations rely on (§II-A). For loads it additionally learns the
	// address stride, so the critical-load prefetcher ([18]) can issue
	// the *next* occurrence's line ahead of time. Stored as a flat
	// open-addressed table (crit.go): it is probed per retired instruction.
	critTable critTable

	// clock is the absolute cycle count across Run calls; cache and DRAM
	// timestamps are absolute, so successive windows continue the clock
	// instead of restarting it (otherwise warm lines would look like
	// in-flight fills).
	clock int64

	// onCommit, when set, observes every retired instruction (see OnCommit).
	onCommit func(d *trace.Dyn, fanout int32, r *Record)
}

// OnCommit registers an observer called exactly once per instruction as it
// retires: at ROB commit, or at decode for CDP mode switches (which never
// enter the ROB). fanout is the instruction's stream fanout (0 when the run
// has no fanout data), r its finalized stage record. The observer lets
// callers fold per-instruction aggregates during a streaming run instead of
// retaining O(n) records; d and r are only valid during the call. It is a
// Sim-level hook rather than a Config field because Config is hashed for
// memo keys and serialized for distributed execution — a func does not
// belong there. Pass nil to detach.
func (s *Sim) OnCommit(fn func(d *trace.Dyn, fanout int32, r *Record)) {
	s.onCommit = fn
}

// New creates a simulator.
func New(cfg Config) *Sim {
	return &Sim{
		cfg:  cfg,
		hier: cache.NewHierarchy(cfg.Hier),
		bpu:  bpu.New(cfg.BPU),
	}
}

// predCritical reports whether the PC is predicted critical.
func (s *Sim) predCritical(pc uint32) bool {
	e := s.critTable.lookup(pc)
	return e != nil && e.crit >= 2
}

// trainCritical updates the criticality table with an observed fanout and,
// for loads, the address stride. When the critical-load prefetch hook is on
// and the stride is confident, the next occurrences' lines are prefetched —
// the form of [18]'s criticality-directed prefetching that actually hides
// DRAM latency for strided critical loads.
func (s *Sim) trainCritical(d *trace.Dyn, fanout int32, now int64) {
	e := s.critTable.insert(d.Addr)
	if fanout >= s.cfg.CritFanoutThreshold {
		if e.crit < 3 {
			e.crit++
		}
	} else if e.crit > 0 {
		e.crit--
	}
	if !d.IsLoad {
		return
	}
	stride := int32(d.MemAddr) - int32(e.lastAddr)
	if stride == e.stride && stride != 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = stride
		if e.conf > 0 {
			e.conf--
		}
	}
	e.lastAddr = d.MemAddr
	if s.cfg.CriticalLoadPrefetch && e.crit >= 2 && e.conf >= 2 {
		for k := int64(1); k <= 3; k++ {
			s.hier.PrefetchData(uint32(int64(d.MemAddr)+k*int64(e.stride)), s.clock+now)
		}
	}
}

const noIdx = -1

// blankRecord is the initial value of every record slot: no stage reached.
var blankRecord = Record{Eligible: -1, Fetched: -1, DecodeDone: -1, Dispatched: -1, Issued: -1, Done: -1, Committed: -1}

// Stream is a chunked pull iterator over (dynamic instruction, fanout)
// pairs — the streaming input of RunStream. Next returns the next contiguous
// chunk of the stream with fanouts aligned to it, or (nil, nil) at end of
// stream. The fanout slice may be nil throughout (no criticality training,
// matching a nil fanouts argument to Run); when non-nil it must stay non-nil
// and aligned for every chunk. Returned slices are only valid until the next
// call — RunStream copies what it still needs.
//
// dfg.FanoutStream implements Stream over a trace.Source; Run adapts plain
// slices.
type Stream interface {
	Next() ([]trace.Dyn, []int32)
}

// sliceStream adapts materialized (dyns, fanouts) slices to the Stream
// interface, yielding DefaultChunk-sized sub-slices.
type sliceStream struct {
	dyns []trace.Dyn
	fan  []int32
	off  int
}

func (ss *sliceStream) Next() ([]trace.Dyn, []int32) {
	if ss.off >= len(ss.dyns) {
		return nil, nil
	}
	end := ss.off + trace.DefaultChunk
	if end > len(ss.dyns) {
		end = len(ss.dyns)
	}
	d := ss.dyns[ss.off:end]
	var f []int32
	if ss.fan != nil {
		f = ss.fan[ss.off:end]
	}
	ss.off = end
	return d, f
}

// runBuffers is the reusable buffer set one RunStream call draws from: the
// sliding instruction/fanout/record window plus the pipeline queues. Pooled
// so that back-to-back measurements (and concurrent shard workers, each
// popping its own set) run the no-records path without per-run allocations.
type runBuffers struct {
	dyn []trace.Dyn
	fan []int32
	rec []Record

	fetchQ  []int32
	renameQ []int32
	robQ    []int32
	iq      []iqEnt
}

// iqEnt is one issue-queue slot: the instruction's absolute stream index plus
// a memoized wake-up cycle. wake > now means the entry's producers are all
// scheduled and the latest finishes at wake, so the scan skips it without
// re-walking the producers; wake <= now means the entry must be (re)checked.
// The memo is exact — producer Done times are assigned once, at issue — so
// skipping is invisible to results.
type iqEnt struct {
	idx  int32
	wake int64
}

var runBufs = sync.Pool{New: func() any { return &runBuffers{} }}

// Run simulates one materialized dynamic window. fanouts may be nil; when
// provided (aligned with dyns, from dfg.Fanouts) it trains the criticality
// table and drives the BackendPrio/CriticalLoadPrefetch hooks.
//
// Run is a thin adapter: the window is fed through RunStream chunk by chunk,
// so the slice and streaming paths share one simulation loop and cannot
// drift apart.
func (s *Sim) Run(dyns []trace.Dyn, fanouts []int32) Result {
	return s.RunStream(&sliceStream{dyns: dyns, fan: fanouts})
}

// RunStream simulates one dynamic window pulled from st chunk by chunk.
//
// Memory is O(chunk + pipeline depth), independent of window length: the
// simulator keeps a sliding window of instructions, fanouts and stage
// records covering only what the pipeline can still touch, and compacts the
// committed prefix away as new chunks are admitted. An instruction that has
// slid out of the window can only be referenced again as a producer, and an
// evicted producer has committed — its result is architecturally available —
// so dependence checks treat it as done. Admission happens when fetch
// catches up with the admitted stream, never stalling the modeled front end,
// which keeps cycle-level behavior bit-identical to simulating the
// materialized window. When CollectRecords is set, finalized records are
// additionally copied out to the O(n) Result.Records slice as instructions
// retire.
func (s *Sim) RunStream(st Stream) Result {
	var res Result
	collect := s.cfg.CollectRecords
	ia0, im0 := s.hier.L1I.Accesses, s.hier.L1I.Misses
	da0, dm0 := s.hier.L1D.Accesses, s.hier.L1D.Misses
	l20, dr0 := s.hier.L2.Accesses, s.hier.DRAM.Accesses

	bufs := runBufs.Get().(*runBuffers)

	type fifo struct {
		buf  []int32
		head int
	}
	push := func(f *fifo, v int32) { f.buf = append(f.buf, v) }
	size := func(f *fifo) int { return len(f.buf) - f.head }
	front := func(f *fifo) int32 { return f.buf[f.head] }
	pop := func(f *fifo) {
		f.head++
		if f.head > 1024 && f.head*2 > len(f.buf) {
			f.buf = append(f.buf[:0], f.buf[f.head:]...)
			f.head = 0
		}
	}

	var (
		now int64

		fetchIdx          int
		fetchBlockedUntil int64
		redirectBranch    = noIdx

		fetchBuf = fifo{buf: bufs.fetchQ[:0]}
		renameQ  = fifo{buf: bufs.renameQ[:0]}

		rob     = fifo{buf: bufs.robQ[:0]}
		iq      = bufs.iq[:0]
		lsqUsed int

		committed int64
		instrs    int64
	)

	// Sliding window: dyn/fan/rec cover absolute indices [winBase, hi).
	// hi counts every instruction admitted from the stream so far.
	var (
		dyn     = bufs.dyn[:0]
		fan     = bufs.fan[:0]
		rec     = bufs.rec[:0]
		winBase int
		hi      int

		exhausted bool
		hasFan    bool
		seqBase   int64
		recOut    []Record // CollectRecords output, indexed absolutely
	)
	defer func() {
		bufs.dyn, bufs.fan, bufs.rec = dyn[:0], fan[:0], rec[:0]
		bufs.fetchQ, bufs.renameQ, bufs.robQ = fetchBuf.buf[:0], renameQ.buf[:0], rob.buf[:0]
		bufs.iq = iq[:0]
		runBufs.Put(bufs)
	}()

	dynAt := func(i int) *trace.Dyn { return &dyn[i-winBase] }
	recAt := func(i int) *Record { return &rec[i-winBase] }

	// oldestInFlight is the lowest absolute index the pipeline can still
	// touch through a queue: queues hold disjoint index ranges with rob the
	// oldest, and anything below all three has committed (CDP mode switches
	// commit at decode, straight out of the fetch buffer).
	oldestInFlight := func() int {
		switch {
		case size(&rob) > 0:
			return int(front(&rob))
		case size(&renameQ) > 0:
			return int(front(&renameQ))
		case size(&fetchBuf) > 0:
			return int(front(&fetchBuf))
		}
		return fetchIdx
	}

	// admit pulls the next chunk into the sliding window, compacting the
	// committed prefix away first when it dominates the window. Returns
	// false once the stream is exhausted.
	admit := func() bool {
		if exhausted {
			return false
		}
		c, f := st.Next()
		if len(c) == 0 {
			exhausted = true
			return false
		}
		if hi == 0 {
			hasFan = f != nil
			seqBase = c[0].Seq
		}
		if k := oldestInFlight() - winBase; k > 0 && k*2 >= len(dyn) {
			dyn = append(dyn[:0], dyn[k:]...)
			rec = append(rec[:0], rec[k:]...)
			if hasFan {
				fan = append(fan[:0], fan[k:]...)
			}
			winBase += k
		}
		dyn = append(dyn, c...)
		if hasFan {
			fan = append(fan, f...)
		}
		for range c {
			rec = append(rec, blankRecord)
		}
		if collect {
			recOut = append(recOut, make([]Record, len(c))...)
		}
		hi += len(c)
		return true
	}

	if !admit() {
		return res // empty stream, matching Run on an empty window
	}
	rec[0].Eligible = 0

	// Per-run metric aggregates, accumulated as instructions retire so the
	// registry flush at the end does not need the full record slice.
	metrics := s.cfg.Metrics
	var runBkd Breakdown
	var cdpCount int64
	// retire finalizes one instruction (ROB commit, or decode for CDP mode
	// switches): metric accumulation, the OnCommit observer, and the
	// collect-mode copy-out.
	retire := func(idx int, d *trace.Dyn, r *Record) {
		if metrics != nil {
			runBkd.Add(BreakdownOf(r))
			if d.IsCDP {
				cdpCount++
			}
		}
		if s.onCommit != nil {
			var fv int32
			if hasFan {
				fv = fan[idx-winBase]
			}
			s.onCommit(d, fv, r)
		}
		if collect {
			recOut[idx] = *r
		}
	}

	// prodsReady reports whether every producer of d has its result available
	// at now. When not ready it also returns the wake-up cycle the issue scan
	// may skip to: the latest producer completion when all producers are
	// scheduled (exact — Done times are assigned once, at issue), or now+1
	// when some producer has not issued yet (re-check next cycle, which is
	// when its readiness could earliest change).
	prodsReady := func(d *trace.Dyn) (bool, int64) {
		var wake int64
		for k := uint8(0); k < d.NProd; k++ {
			p := int(d.Prod[k] - seqBase)
			if p < winBase {
				// Before the stream, or slid out of the window => committed;
				// result long available.
				continue
			}
			pd := rec[p-winBase].Done
			if pd < 0 {
				return false, now + 1
			}
			if pd > wake {
				wake = pd
			}
		}
		return wake <= now, wake
	}

	for !exhausted || committed < int64(hi) {
		// ---- Commit ----
		for w := 0; w < s.cfg.CommitWidth && size(&rob) > 0; w++ {
			idx := int(front(&rob))
			d := dynAt(idx)
			r := recAt(idx)
			if r.Done < 0 || r.Done > now {
				break
			}
			r.Committed = now
			pop(&rob)
			committed++
			if !d.Overhead {
				instrs++
			}
			if d.IsLoad || d.IsStore {
				lsqUsed--
			}
			if hasFan {
				s.trainCritical(d, fan[idx-winBase], now)
			}
			retire(idx, d, r)
		}

		// ---- Redirect resolution ----
		if redirectBranch != noIdx {
			if dn := recAt(redirectBranch).Done; dn >= 0 {
				until := dn + s.cfg.MispredictPenalty
				if until > fetchBlockedUntil {
					fetchBlockedUntil = until
				}
				redirectBranch = noIdx
			}
		}

		// ---- Issue / execute ----
		intALU, mulDiv, fpu, mem := s.cfg.IntALUs, s.cfg.MulDivUs, s.cfg.FPUs, s.cfg.MemPorts
		budget := s.cfg.IssueWidth
		// Two passes under BackendPrio: critical-predicted first.
		passes := 1
		if s.cfg.BackendPrio {
			passes = 2
		}
		for pass := 0; pass < passes && budget > 0; pass++ {
			for qi := 0; qi < len(iq) && budget > 0; qi++ {
				e := &iq[qi]
				idx := e.idx
				if idx == noIdx {
					continue
				}
				if e.wake > now {
					continue // producers known not done before wake
				}
				d := dynAt(int(idx))
				if s.cfg.BackendPrio {
					crit := s.predCritical(d.Addr)
					if pass == 0 && !crit {
						continue
					}
					if pass == 1 && crit {
						continue
					}
				}
				r := recAt(int(idx))
				if r.Dispatched >= now {
					continue
				}
				if ready, wake := prodsReady(d); !ready {
					e.wake = wake
					continue
				}
				var pool *int
				switch d.Class {
				case isa.ClassMul, isa.ClassDiv:
					pool = &mulDiv
				case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv:
					pool = &fpu
				case isa.ClassLoad, isa.ClassStore:
					pool = &mem
				default:
					pool = &intALU
				}
				if *pool == 0 {
					continue
				}
				*pool--
				budget--
				r.Issued = now
				switch {
				case d.IsLoad:
					start := now + int64(d.Latency) // AGU + access initiation
					r.Done = s.hier.Data(d.Addr, d.MemAddr, s.clock+start) - s.clock
				case d.IsStore:
					r.Done = now + 1
					s.hier.Data(d.Addr, d.MemAddr, s.clock+now+1) // line install; store buffered
				default:
					r.Done = now + int64(d.Latency)
				}
				e.idx = noIdx
			}
		}
		// Compact the issue queue. Only an issue clears a slot, so a cycle
		// that issued nothing leaves nothing to squeeze out.
		if budget < s.cfg.IssueWidth {
			out := iq[:0]
			for _, v := range iq {
				if v.idx != noIdx {
					out = append(out, v)
				}
			}
			iq = out
		}

		// ---- Rename / dispatch ----
		for w := 0; w < s.cfg.RenameWidth && size(&renameQ) > 0; w++ {
			idx := front(&renameQ)
			d := dynAt(int(idx))
			if recAt(int(idx)).DecodeDone >= now {
				break
			}
			if size(&rob) >= s.cfg.ROBSize || len(iq) >= s.cfg.IQSize {
				break
			}
			if (d.IsLoad || d.IsStore) && lsqUsed >= s.cfg.LSQSize {
				break
			}
			pop(&renameQ)
			recAt(int(idx)).Dispatched = now
			push(&rob, idx)
			iq = append(iq, iqEnt{idx: idx})
			if d.IsLoad || d.IsStore {
				lsqUsed++
			}
		}

		// ---- Decode ----
		// The rename queue is a small latch between decode and rename;
		// when rename stalls (ROB/IQ full) it fills and decode stops,
		// pushing the back-pressure into the fetch buffer where it is
		// attributed as F.StallForR+D.
		renameQCap := 2 * s.cfg.RenameWidth
		slots := s.cfg.DecodeWidth
		for slots > 0 && size(&fetchBuf) > 0 && size(&renameQ) < renameQCap {
			idx := int(front(&fetchBuf))
			d := dynAt(idx)
			r := recAt(idx)
			if r.Fetched >= now {
				break
			}
			pop(&fetchBuf)
			slots--
			r.DecodeDone = now
			if d.IsCDP {
				// The mode switch is consumed by the decoder; it
				// never enters the ROB. Charge the conservative
				// 1-cycle decoder bubble.
				r.Dispatched = now
				r.Issued = now
				r.Done = now
				r.Committed = now
				committed++
				retire(idx, d, r)
				if s.cfg.CDPExtraDecodeCycle {
					// The mode switch flushes the rest of this
					// decode group (a sub-cycle bubble); decoding
					// resumes next cycle in the new mode.
					break
				}
				continue
			}
			push(&renameQ, int32(idx))
		}

		// ---- Fetch ----
		if redirectBranch == noIdx && now >= fetchBlockedUntil {
			bytes := s.cfg.FetchBytes
			slots := s.cfg.FetchWidth
			var curLine int64 = -1
			// markEligible stamps the next-to-fetch instruction, admitting
			// its chunk if the window has not reached it yet (admission is
			// a data pull only; it cannot affect timing).
			markEligible := func() {
				if fetchIdx == hi && !admit() {
					return
				}
				if r := recAt(fetchIdx); r.Eligible < 0 {
					r.Eligible = now
				}
			}
			for slots > 0 && size(&fetchBuf) < s.cfg.FetchBufSize {
				if fetchIdx == hi && !admit() {
					break
				}
				d := dynAt(fetchIdx)
				if int(d.Size) > bytes {
					break
				}
				line := int64(d.Addr &^ (cache.LineBytes - 1))
				if line != curLine {
					ready := s.hier.Instr(uint32(line), s.clock+now) - s.clock
					if ready > now+s.hier.L1I.HitLat() {
						// Miss (or in-flight fill): fetch stalls.
						fetchBlockedUntil = ready
						break
					}
					curLine = line
				}
				recAt(fetchIdx).Fetched = now
				push(&fetchBuf, int32(fetchIdx))
				bytes -= int(d.Size)
				slots--

				// Optimization hooks at fetch.
				if s.cfg.CriticalLoadPrefetch && d.IsLoad && s.predCritical(d.Addr) {
					s.hier.PrefetchData(d.MemAddr, s.clock+now)
				}
				if s.hier.EFetch != nil && d.Op == isa.OpBL {
					if target := s.hier.EFetch.Predict(d.Addr); target != 0 {
						for l := 0; l < s.hier.EFetch.Depth(); l++ {
							s.hier.PrefetchInstr(target+uint32(l*cache.LineBytes), s.clock+now)
						}
					}
					s.hier.EFetch.Train(d.Addr, d.Target)
				}

				redirected := false
				switch {
				case d.IsCond:
					res.CondBr++
					if !s.bpu.PredictAndUpdate(d.Addr, d.Taken) {
						res.Mispredicts++
						redirectBranch = fetchIdx
						redirected = true
						recAt(fetchIdx).Redirected = true
					}
				case d.Op == isa.OpBL:
					// Calls push the return address; BTB predicts the
					// target (direct calls never mispredict).
					s.bpu.Call(d.Addr + uint32(d.Size))
				case d.Op == isa.OpBX && d.Taken:
					// Returns predict through the RAS; a depth overflow
					// or corruption redirects like a branch mispredict.
					if !s.bpu.Return(d.Target) {
						res.Mispredicts++
						redirectBranch = fetchIdx
						redirected = true
						recAt(fetchIdx).Redirected = true
					}
				}
				endGroup := d.IsBranch && d.Taken

				fetchIdx++
				markEligible()
				if redirected || endGroup {
					break
				}
			}
			// An instruction stalled on bandwidth/buffer becomes eligible
			// now if it was not already.
			markEligible()
			if s.cfg.Metrics != nil {
				s.cfg.Metrics.FetchBytesUsed.Observe(float64(s.cfg.FetchBytes - bytes))
			}
		}

		now++
	}

	s.clock += now
	res.Cycles = now
	res.AllDyns = int64(hi)
	res.Instrs = instrs
	res.ICacheAccesses = s.hier.L1I.Accesses - ia0
	res.ICacheMisses = s.hier.L1I.Misses - im0
	res.DCacheAccesses = s.hier.L1D.Accesses - da0
	res.DCacheMisses = s.hier.L1D.Misses - dm0
	res.L2Accesses = s.hier.L2.Accesses - l20
	res.DRAMAccesses = s.hier.DRAM.Accesses - dr0
	if metrics != nil {
		metrics.flushRun(&res, runBkd, cdpCount)
	}
	if collect {
		res.Records = recOut
	}
	return res
}
