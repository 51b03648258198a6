// Package trace turns a static program into a dynamic instruction stream:
// the functional half of trace-driven simulation. It resolves control flow
// (branch biases, calls/returns), generates data addresses from each memory
// instruction's region/stride model, and annotates every dynamic instruction
// with the sequence numbers of its producers — which is all the timing
// simulator (internal/cpu) and the profiler (internal/dfg, internal/core)
// need.
//
// This substitutes for the paper's QEMU/AOSP instrumented-disassembler trace
// collection (§III-C): the downstream consumers see a stream with the same
// information content (PC, encoding size/mode, dependences, memory
// addresses, branch outcomes).
package trace

import (
	"math/rand"

	"critics/internal/isa"
	"critics/internal/prog"
)

// mix64 is a splitmix64-style hash used for per-instruction randomness.
// Every random draw in the generator is keyed by (seed, static instruction,
// execution count) rather than pulled from a shared stream, so compiler
// reorderings never perturb unrelated draws — A/B comparisons between a
// baseline and a transformed program see identical control flow and
// identical memory addresses for corresponding instructions.
func mix64(a, b uint64) uint64 {
	x := a ^ (b + 0x9E3779B97F4A7C15 + (a << 6) + (a >> 2))
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// mixFloat maps a hash to [0, 1).
func mixFloat(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// DataBase is the base virtual address of the data regions; code starts at
// address 0 (see prog.Layout).
const DataBase uint32 = 0x4000_0000

// NoProd marks an absent producer.
const NoProd int64 = -1

// Dyn is one dynamic instruction instance.
type Dyn struct {
	Seq  int64
	ID   prog.InstID
	Addr uint32

	Op    isa.Op
	Class isa.Class

	// Prod holds the sequence numbers of the producing dynamic
	// instructions for each register (and CC) source; NProd entries are
	// valid. A producer may be arbitrarily far back in the stream.
	Prod  [4]int64
	NProd uint8

	Size     uint8 // encoded size in bytes (2 or 4)
	Thumb    bool
	Expanded bool // Thumb emission occupying two halfwords (2 decode slots)
	IsCDP    bool
	CDPCount uint8

	// Control flow.
	IsBranch bool // any control instruction (B/BL/BX)
	IsCond   bool
	Taken    bool
	Target   uint32 // address actually followed when Taken (or call/ret target)

	// Memory.
	MemAddr uint32
	IsLoad  bool
	IsStore bool

	Latency uint8 // base execute latency (memory time added by the simulator)

	// Overhead marks non-architectural instructions added by the compiler
	// passes (CDP mode switches, Approach-1 switch branches). Fair A/B
	// comparisons size windows by architectural count (GenerateArch).
	Overhead bool

	ChainID int // CritIC chain tag propagated from the static instruction
}

// Generator produces the dynamic stream for one program with a fixed seed.
// It is stateful: successive Generate calls continue the execution.
type Generator struct {
	p   *prog.Program
	rng *rand.Rand

	curFunc  int
	curBlock int
	curIdx   int

	callStack []retSite

	// regProd[r] is the Seq of the last writer of register r; index 16 is
	// the condition flags.
	regProd [17]int64

	// memCursor is the per-static-instruction address stream state,
	// indexed by instruction UID.
	memCursor []uint32
	// execCount is the per-static-instruction execution counter (by UID),
	// the key for order-independent random draws.
	execCount []uint64

	regionBase []uint32

	seedHash uint64

	seq int64

	// expandedHelper tracks whether the helper half of an Expanded
	// instruction has been emitted (see step).
	expandedHelper bool

	// Iterations counts completions of the entry function (event-loop
	// iterations for app workloads).
	Iterations int64
}

type retSite struct {
	fn    int
	block int
	idx   int
}

// NewGenerator creates a generator at the entry of p. The program must be
// laid out and valid.
func NewGenerator(p *prog.Program, seed int64) *Generator {
	if !p.LaidOut() {
		p.Layout()
	}
	g := &Generator{
		p:   p,
		rng: rand.New(rand.NewSource(seed)),
	}
	for i := range g.regProd {
		g.regProd[i] = NoProd
	}
	nUID := int(p.MaxUID()) + 1
	g.memCursor = make([]uint32, nUID)
	g.execCount = make([]uint64, nUID)
	g.seedHash = mix64(uint64(seed), 0x5bd1e995)
	// Spread initial cursors across the FULL 32-bit space (reduced mod the
	// region size at use) so different static instructions stream through
	// disjoint parts of their regions; keyed per instruction, not
	// streamed, so the spread survives compiler reordering.
	for i := range g.memCursor {
		g.memCursor[i] = uint32(mix64(g.seedHash, uint64(i))) &^ 3
	}
	g.regionBase = make([]uint32, p.NumMemRegions)
	base := DataBase
	for i, sz := range p.RegionBytes {
		g.regionBase[i] = base
		base += (sz + 63) &^ 63
	}
	g.curFunc = p.Entry
	return g
}

// Generate appends the next n dynamic instructions to dst and returns it.
func (g *Generator) Generate(dst []Dyn, n int) []Dyn {
	for i := 0; i < n; i++ {
		dst = append(dst, g.step())
	}
	return dst
}

// GenerateArch appends dynamic instructions to dst until n architectural
// (non-overhead) instructions have been emitted, and returns dst. Compiler
// passes insert CDPs and switch branches into the stream; comparing
// configurations over equal *architectural* work requires this sizing.
func (g *Generator) GenerateArch(dst []Dyn, n int) []Dyn {
	arch := 0
	for arch < n {
		d := g.step()
		if !d.Overhead {
			arch++
		}
		dst = append(dst, d)
	}
	return dst
}

// SkipArch advances execution by n architectural instructions.
func (g *Generator) SkipArch(n int) {
	arch := 0
	for arch < n {
		if !g.step().Overhead {
			arch++
		}
	}
}

// Skip advances execution by n dynamic instructions without recording them.
// Producer bookkeeping still runs so later dependences stay correct.
func (g *Generator) Skip(n int) {
	for i := 0; i < n; i++ {
		g.step()
	}
}

// step executes one dynamic instruction and advances control flow.
func (g *Generator) step() Dyn {
	f := g.p.Funcs[g.curFunc]
	b := f.Blocks[g.curBlock]
	// Advance over empty blocks (with a safety bound against degenerate
	// CFG cycles of empty blocks).
	for guard := 0; g.curIdx >= len(b.Instrs); guard++ {
		if guard > 1024 {
			panic("trace: CFG cycle of empty blocks")
		}
		g.leaveBlock(b, false)
		f = g.p.Funcs[g.curFunc]
		b = f.Blocks[g.curBlock]
	}
	in := &b.Instrs[g.curIdx]
	// Expanded Thumb emissions (Compress, §V) execute as TWO dynamic
	// instructions: a register-shuffle/constant-build helper halfword
	// followed by the operation itself — the ~1.6x expansion cost of
	// converting high-register or wide-immediate code to the 16-bit
	// format. The helper is overhead: it occupies fetch, decode and
	// execute resources but performs no architectural work of its own.
	if in.Expanded && !g.expandedHelper {
		g.expandedHelper = true
		h := Dyn{
			Seq:      g.seq,
			ID:       prog.InstID{Func: g.curFunc, Block: g.curBlock, Index: g.curIdx},
			Addr:     in.Addr,
			Op:       isa.OpMOV,
			Class:    isa.ClassALU,
			Size:     2,
			Thumb:    true,
			Overhead: true,
			Latency:  1,
		}
		g.seq++
		return h
	}
	g.expandedHelper = false
	d := Dyn{
		Seq:      g.seq,
		ID:       prog.InstID{Func: g.curFunc, Block: g.curBlock, Index: g.curIdx},
		Addr:     in.Addr,
		Op:       in.Op,
		Class:    in.Op.ClassOf(),
		Size:     uint8(in.Size()),
		Thumb:    in.Thumb,
		Expanded: in.Expanded,
		Latency:  uint8(in.Op.BaseLatency()),
		ChainID:  in.ChainID,
	}
	if in.Expanded {
		// The helper occupied the first halfword.
		d.Addr = in.Addr + 2
		d.Size = 2
	}
	if in.Op == isa.OpCDP {
		d.IsCDP = true
		d.CDPCount = uint8(in.CDPCount)
		d.Overhead = true
	}
	if in.ModeSwitch {
		d.Overhead = true
	}

	// Dependences.
	var srcs [4]isa.Reg
	for _, r := range in.Sources(srcs[:0]) {
		if r < isa.NumRegs {
			if p := g.regProd[r]; p != NoProd {
				d.Prod[d.NProd] = p
				d.NProd++
			}
		}
	}
	if in.ReadsCC() {
		if p := g.regProd[16]; p != NoProd {
			d.Prod[d.NProd] = p
			d.NProd++
		}
	}

	// Memory address.
	if in.Op.IsMem() {
		uid := in.UID
		g.execCount[uid]++
		region := in.MemRegion
		size := g.p.RegionBytes[region]
		var off uint32
		if in.MemStride == 0 {
			h := mix64(g.seedHash^uint64(uid)<<20, g.execCount[uid])
			off = uint32(h%uint64(size/4)) * 4
		} else {
			off = g.memCursor[uid] % size
			g.memCursor[uid] = (g.memCursor[uid] + uint32(in.MemStride)) % size
		}
		d.MemAddr = g.regionBase[region] + off
		d.IsLoad = in.Op.HasDst()
		d.IsStore = !d.IsLoad
	}

	// Writes.
	if dst := in.Dest(); dst != isa.NoReg && dst < isa.NumRegs {
		g.regProd[dst] = g.seq
	}
	if in.WritesCC() {
		g.regProd[16] = g.seq
	}

	// Control flow.
	if in.ModeSwitch {
		// Format-switch branch (Approach 1): its target is the literal
		// next instruction, so BTB-directed fetch continues in line —
		// no redirect (Taken stays false); the cost is the fetch bytes,
		// the pipeline slots and the branch-unit occupancy.
		d.IsBranch = true
	}
	last := g.curIdx == len(b.Instrs)-1
	if !last {
		g.curIdx++
	} else {
		switch in.Op {
		case isa.OpB:
			d.IsBranch = true
			d.IsCond = b.End == prog.EndCondBranch
			taken := true
			if d.IsCond {
				uid := in.UID
				g.execCount[uid]++
				h := mix64(g.seedHash^uint64(uid)<<20, g.execCount[uid])
				taken = mixFloat(h) < b.TakenProb
			}
			d.Taken = taken
			if taken {
				d.Target = blockAddr(f, b.Taken)
			}
			g.leaveBlock(b, taken)
		case isa.OpBL:
			d.IsBranch = true
			d.Taken = true
			d.Target = funcAddr(g.p, b.Callee)
			g.regProd[int(isa.LR)] = g.seq // BL writes the link register
			g.leaveBlock(b, false)
		case isa.OpBX:
			d.IsBranch = true
			d.Taken = true
			// Return target is wherever the call stack says; filled by
			// leaveBlock via the stack.
			g.leaveBlock(b, false)
			d.Target = g.currentAddr()
		default:
			g.leaveBlock(b, false)
		}
	}
	g.seq++
	return d
}

// leaveBlock moves control to the successor of b. For conditional ends,
// taken selects the edge.
func (g *Generator) leaveBlock(b *prog.Block, taken bool) {
	switch b.End {
	case prog.EndFallthrough:
		g.curBlock = b.Next
	case prog.EndJump:
		g.curBlock = b.Taken
	case prog.EndCondBranch:
		if taken {
			g.curBlock = b.Taken
		} else {
			g.curBlock = b.Next
		}
	case prog.EndCall:
		g.callStack = append(g.callStack, retSite{fn: g.curFunc, block: b.Next, idx: 0})
		g.curFunc = b.Callee
		g.curBlock = 0
	case prog.EndReturn:
		if len(g.callStack) == 0 {
			// The entry function returned: model the app's event loop
			// by restarting at the entry.
			g.Iterations++
			g.curFunc = g.p.Entry
			g.curBlock = 0
		} else {
			top := g.callStack[len(g.callStack)-1]
			g.callStack = g.callStack[:len(g.callStack)-1]
			g.curFunc = top.fn
			g.curBlock = top.block
		}
	}
	g.curIdx = 0
}

// currentAddr returns the address of the next instruction to execute
// (skipping empty blocks without committing the walk).
func (g *Generator) currentAddr() uint32 {
	f := g.p.Funcs[g.curFunc]
	b := f.Blocks[g.curBlock]
	// Walk fallthrough edges of empty blocks non-destructively.
	fn, bi := g.curFunc, g.curBlock
	for guard := 0; len(b.Instrs) == 0; guard++ {
		if guard > 1024 {
			panic("trace: CFG cycle of empty blocks")
		}
		switch b.End {
		case prog.EndFallthrough:
			bi = b.Next
		case prog.EndJump:
			bi = b.Taken
		default:
			// Empty block with complex end: address of the block
			// itself is unknowable without executing; give up and
			// report function start (diagnostic only).
			return funcAddr(g.p, fn)
		}
		b = f.Blocks[bi]
	}
	return b.Instrs[g.curIdx].Addr
}

// blockAddr returns the address of the first instruction of block bi in f
// (following empty fallthrough blocks).
func blockAddr(f *prog.Func, bi int) uint32 {
	b := f.Blocks[bi]
	for guard := 0; len(b.Instrs) == 0; guard++ {
		if guard > 1024 {
			panic("trace: empty block chain too long")
		}
		switch b.End {
		case prog.EndFallthrough:
			b = f.Blocks[b.Next]
		case prog.EndJump:
			b = f.Blocks[b.Taken]
		default:
			return 0
		}
	}
	return b.Instrs[0].Addr
}

// funcAddr returns the entry address of function fi.
func funcAddr(p *prog.Program, fi int) uint32 {
	f := p.Funcs[fi]
	return blockAddr(f, 0)
}

// Window is one sampled window of the dynamic stream.
type Window struct {
	Dyns []Dyn
}

// SamplePlan describes how app execution is sampled, mirroring the paper's
// methodology (§IV-C): "100 samples at random, each containing ~500k
// contiguous instructions". Scaled-down plans are used in tests/benches.
type SamplePlan struct {
	Samples int // number of windows
	Length  int // dynamic instructions per window
	Gap     int // instructions skipped between windows (pseudo-random spacing uses Gap as mean)
	Warmup  int // instructions skipped before the first window
}

// DefaultSamplePlan mirrors the paper at reduced scale: the shapes stabilize
// well below 500k-instruction windows for synthetic workloads.
func DefaultSamplePlan() SamplePlan {
	return SamplePlan{Samples: 10, Length: 20_000, Gap: 10_000, Warmup: 5_000}
}

// Collect runs the plan against a fresh generator and returns the sampled
// windows, fully materialized.
//
// Materializing whole windows is O(plan.Samples * plan.Length) memory and is
// deprecated for non-test callers on the measurement hot path: profilers and
// analyses that can consume the stream incrementally should pull chunks
// through a Source (NewGenSource after Skip-ing to the window start) and run
// in O(chunk) memory instead, as exp.Context.Profile does. Collect remains
// for fixtures and for core.BuildProfile's remaining callers (fleet device
// profiles, examples/designspace).
func Collect(p *prog.Program, seed int64, plan SamplePlan) []Window {
	g := NewGenerator(p, seed)
	g.Skip(plan.Warmup)
	ws := make([]Window, 0, plan.Samples)
	for s := 0; s < plan.Samples; s++ {
		dyns := g.Generate(make([]Dyn, 0, plan.Length), plan.Length)
		ws = append(ws, Window{Dyns: dyns})
		if plan.Gap > 0 {
			g.Skip(plan.Gap)
		}
	}
	return ws
}

// Flatten concatenates windows into one stream (used by consumers that do
// not care about window boundaries).
//
// Like Collect, Flatten materializes; it doubles the peak memory of the
// windows it joins. Deprecated for non-test callers: stream consumers should
// iterate the windows (or pull a Source) chunk by chunk instead of flattening
// — see the chunked Source API in source.go.
func Flatten(ws []Window) []Dyn {
	n := 0
	for _, w := range ws {
		n += len(w.Dyns)
	}
	out := make([]Dyn, 0, n)
	for _, w := range ws {
		out = append(out, w.Dyns...)
	}
	return out
}
