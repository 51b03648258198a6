// Package compiler implements the code-generation side of the paper: the
// CritIC instrumentation pass (§III-C "Compilation") that hoists profiled
// chains contiguous and emits them in the 16-bit format behind a CDP mode
// switch, the "Approach 1" branch-pair switch it compares against (§IV-A),
// the Hoist-only ablation (§IV-D), and the two criticality-agnostic Thumb
// baselines of §V — OPP16 (opportunistic conversion of runs >= 3) and
// Compress (the fine-grained Thumb-conversion heuristic of [78]).
//
// All passes operate on clones of the input program, never mutate it, and
// check hoisting against prog.Deps, the legality oracle behind
// prog.ReorderLegal (register, CC and memory dependences). Transformed
// programs re-run Layout and Validate; the paper's pass similarly leaves
// scheduling untouched beyond hoisting.
package compiler

import (
	"fmt"
	"slices"
	"sort"

	"critics/internal/core"
	"critics/internal/encoding"
	"critics/internal/isa"
	"critics/internal/prog"
)

// SwitchKind selects how the decoder is told about a format switch.
type SwitchKind uint8

// Format-switch mechanisms.
const (
	// SwitchCDP is the paper's proposal (§IV-B): a 16-bit CDP command
	// whose 3-bit field covers the following Thumb instructions.
	SwitchCDP SwitchKind = iota
	// SwitchBranch is "Approach 1" (§IV-A): unconditional branches before
	// (32-bit) and after (16-bit) the converted sequence, as existing ARM
	// hardware requires. Cheap chains cannot amortize them.
	SwitchBranch
)

// Options configures the CritIC pass.
type Options struct {
	// MaxLen truncates selected chains at this many members (paper: 5).
	// 0 means no truncation beyond core.MaxChainLen.
	MaxLen int

	// Switch selects the format-switch mechanism.
	Switch SwitchKind

	// HoistOnly hoists chains contiguous but leaves them in the 32-bit
	// format (the Hoist design point of §IV-D).
	HoistOnly bool

	// Ideal emulates CritIC.Ideal (§IV-D): every selected chain is
	// aggregated and Thumb-translated regardless of representability.
	Ideal bool
}

// Stats reports what a pass did.
type Stats struct {
	ChainsAttempted  int // selected chains seen
	ChainsHoisted    int // hoisting legal and applied
	ChainsIllegal    int // dropped: reordering would break a dependence
	ChainsConverted  int // hoisted and Thumb-converted
	ChainsNotThumb   int // hoisted but left in 32-bit (all-or-nothing rule)
	CDPsInserted     int
	BranchesInserted int
	ConvertedInstrs  int // static instructions emitted in T16
	ExpandedInstrs   int // T16 emissions needing two halfwords
}

// String summarizes the stats.
func (s Stats) String() string {
	return fmt.Sprintf("chains: %d attempted, %d hoisted, %d converted, %d illegal, %d non-thumb; %d CDPs, %d switch branches, %d T16 instrs (%d expanded)",
		s.ChainsAttempted, s.ChainsHoisted, s.ChainsConverted, s.ChainsIllegal, s.ChainsNotThumb,
		s.CDPsInserted, s.BranchesInserted, s.ConvertedInstrs, s.ExpandedInstrs)
}

// ApplyCritIC runs the CritIC instrumentation pass: for every selected chain
// in the profile it (1) hoists the members contiguous at the first member's
// position — displaced non-members retain their relative order after the
// chain — when the block's dependence relation (prog.Deps, built once per
// block and shared by its chains and prefix retries) allows it, and (2)
// converts the members to the 16-bit format behind the configured switch
// when every member passes the all-or-nothing representability test (or
// unconditionally under Ideal). Chains that name a function or block the
// program does not have (a stale profile) count as illegal.
//
// The returned program is laid out and validated; the input is untouched.
func ApplyCritIC(p *prog.Program, prof *core.Profile, opt Options) (*prog.Program, Stats, error) {
	q := p.Clone()
	var st Stats

	// Group selected chains by block.
	type blockKey struct{ fn, blk int }
	chains := make(map[blockKey][][]int)
	for _, e := range prof.Selected() {
		members := make([]int, 0, e.Key.N)
		for i := uint8(0); i < e.Key.N; i++ {
			members = append(members, int(e.Key.Idx[i]))
		}
		if opt.MaxLen > 0 && len(members) > opt.MaxLen {
			members = members[:opt.MaxLen]
		}
		k := blockKey{int(e.Key.Func), int(e.Key.Block)}
		chains[k] = append(chains[k], members)
	}
	// Deterministic block order.
	keys := make([]blockKey, 0, len(chains))
	for k := range chains {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].fn != keys[j].fn {
			return keys[i].fn < keys[j].fn
		}
		return keys[i].blk < keys[j].blk
	})

	chainID := 0
	// Per-block state, reused across blocks: the dependence relation over
	// original indices, cur[orig] = current position, at[pos] = original
	// index, the candidate hoist permutation (over current positions) and
	// the same order in original indices, and the hoisted chains' members
	// (original indices).
	var (
		deps        prog.Deps
		cur, at     []int
		perm, order []int
		hoisted     [][]int
	)
	for _, k := range keys {
		blockChains := chains[k]
		if k.fn >= len(q.Funcs) || k.blk >= len(q.Funcs[k.fn].Blocks) {
			// Stale profile: the block does not exist in this program.
			st.ChainsAttempted += len(blockChains)
			st.ChainsIllegal += len(blockChains)
			continue
		}
		b := q.Funcs[k.fn].Blocks[k.blk]
		n := len(b.Instrs)
		// Ascending by first member.
		sort.Slice(blockChains, func(i, j int) bool { return blockChains[i][0] < blockChains[j][0] })

		deps.Reset(b)
		cur, at = cur[:0], at[:0]
		for i := 0; i < n; i++ {
			cur = append(cur, i)
			at = append(at, i)
		}
		hoisted = hoisted[:0]
		for _, members := range blockChains {
			st.ChainsAttempted++
			// When the full chain cannot be hoisted legally, retry with
			// progressively shorter prefixes — a profiled chain whose
			// tail picked up an unmovable instruction still has a
			// hoistable core.
			legal := false
			for len(members) >= 2 {
				var ok bool
				perm, ok = hoistPerm(perm[:0], n, members, cur)
				if ok {
					order = order[:0]
					for _, c := range perm {
						order = append(order, at[c])
					}
					if deps.Legal(order) {
						legal = true
						break
					}
				}
				members = members[:len(members)-1]
			}
			if !legal {
				st.ChainsIllegal++
				continue
			}
			prog.ApplyReorder(b, perm)
			at, order = order, at
			for np, o := range at {
				cur[o] = np
			}
			st.ChainsHoisted++
			chainID++
			for _, m := range members {
				b.Instrs[cur[m]].ChainID = chainID
			}
			hoisted = append(hoisted, members)
		}

		if opt.HoistOnly {
			continue
		}
		// Convert hoisted chains, descending by position so insertions do
		// not shift earlier chains.
		sort.Slice(hoisted, func(i, j int) bool { return cur[hoisted[i][0]] > cur[hoisted[j][0]] })
		for _, members := range hoisted {
			start, k := cur[members[0]], len(members)
			ok := true
			if !opt.Ideal {
				for _, m := range members {
					if !encoding.Representable(b.Instrs[cur[m]].Inst) {
						ok = false
						break
					}
				}
			}
			if !ok {
				st.ChainsNotThumb++
				continue
			}
			for _, m := range members {
				b.Instrs[cur[m]].Thumb = true
			}
			st.ChainsConverted++
			st.ConvertedInstrs += k
			switch opt.Switch {
			case SwitchCDP:
				insertCDPs(b, start, k, &st)
			case SwitchBranch:
				insertBranchPair(b, start, k, &st)
			}
		}
	}
	q.Layout()
	if err := q.Validate(); err != nil {
		return nil, st, fmt.Errorf("compiler: CritIC pass produced invalid program: %w", err)
	}
	return q, st, nil
}

// hoistPerm appends to perm the permutation placing the chain's members
// (original indices, via cur mapping) contiguously at the first member's
// position, with displaced non-members following in original order.
// Returns ok=false if a member is out of range or the members are not
// strictly ordered (stale profile).
func hoistPerm(perm []int, n int, members []int, cur []int) ([]int, bool) {
	for i, m := range members {
		if m < 0 || m >= n {
			return perm, false
		}
		if i > 0 && cur[m] <= cur[members[i-1]] {
			return perm, false
		}
	}
	first, last := cur[members[0]], cur[members[len(members)-1]]
	for i := 0; i < first; i++ {
		perm = append(perm, i)
	}
	for _, m := range members {
		perm = append(perm, cur[m])
	}
	// Members' positions ascend, so one cursor tells them apart from the
	// displaced non-members.
	next := 0
	for i := first; i <= last; i++ {
		if next < len(members) && cur[members[next]] == i {
			next++
			continue
		}
		perm = append(perm, i)
	}
	for i := last + 1; i < n; i++ {
		perm = append(perm, i)
	}
	return perm, true
}

// insertCDPs inserts CDP mode-switch commands before the Thumb run at
// [start, start+k), chaining commands for runs longer than the 3-bit field
// covers.
func insertCDPs(b *prog.Block, start, k int, st *Stats) {
	// Work backwards so earlier insertions do not shift later segments.
	type seg struct{ at, count int }
	var segs []seg
	for off := 0; off < k; off += isa.CDPMaxRun {
		count := k - off
		if count > isa.CDPMaxRun {
			count = isa.CDPMaxRun
		}
		segs = append(segs, seg{at: start + off, count: count})
	}
	for i := len(segs) - 1; i >= 0; i-- {
		cdp := prog.Instr{
			Inst:     isa.Inst{Op: isa.OpCDP, Rd: isa.NoReg, Rn: isa.NoReg, Rm: isa.NoReg},
			Thumb:    true,
			CDPCount: segs[i].count,
		}
		b.Instrs = slices.Insert(b.Instrs, segs[i].at, cdp)
		st.CDPsInserted++
	}
}

// insertBranchPair brackets the Thumb run at [start, start+k) with the
// Approach-1 switch branches: a 32-bit branch before (sets the Thumb flag,
// jumps to the first converted instruction) and a 16-bit branch after
// (resets it).
func insertBranchPair(b *prog.Block, start, k int, st *Stats) {
	pre := prog.Instr{
		Inst:       isa.Inst{Op: isa.OpB, Rd: isa.NoReg, Rn: isa.NoReg, Rm: isa.NoReg},
		ModeSwitch: true,
	}
	post := prog.Instr{
		Inst:       isa.Inst{Op: isa.OpB, Rd: isa.NoReg, Rn: isa.NoReg, Rm: isa.NoReg},
		ModeSwitch: true,
		Thumb:      true,
	}
	b.Instrs = slices.Insert(b.Instrs, start+k, post)
	b.Instrs = slices.Insert(b.Instrs, start, pre)
	st.BranchesInserted += 2
}

// convertible classifies an instruction for the opportunistic passes.
//
// "Direct" conversion requires a single-halfword encoding as-is: that is
// the conversion that costs nothing. Everything else that is architecturally
// Thumb-able — layout-misfit register shapes, three-address immediates,
// immediates beyond the 7-bit field — needs *expansion*: an extra
// register-shuffling/constant-building instruction, the mechanism behind
// full-Thumb's ~1.6x dynamic instruction expansion the paper cites ([51],
// [52], [55]). The CritIC pass never faces this trade-off: its chains
// convert under the same as-is rule (all or nothing).
func convertible(in *prog.Instr) (direct, expand bool) {
	if in.Op == isa.OpCDP || in.ModeSwitch || in.Thumb || in.Op.IsControl() {
		return false, false
	}
	if encoding.Representable(in.Inst) {
		return true, false
	}
	if in.ThumbCheck() == isa.ThumbOK {
		return false, true
	}
	// Immediates beyond the 7-bit T16 field but within A32's 12-bit field
	// expand (MOV high + op).
	if in.ThumbCheck() == isa.ThumbImmTooLarge && in.Cond == isa.CondAL && in.Op.HasT16() {
		return false, true
	}
	return false, false
}

// ApplyOPP16 opportunistically converts every run of at least minRun
// consecutive *directly* convertible instructions to the 16-bit format,
// without any reordering and without paying expansion (§V, OPP16: "if there
// is an instruction which is not amenable ... OPP16 will NOT move the
// instructions around"; paper uses minRun = 3).
func ApplyOPP16(p *prog.Program, minRun int) (*prog.Program, Stats, error) {
	if minRun < 1 {
		minRun = 3
	}
	q := p.Clone()
	var st Stats
	for _, f := range q.Funcs {
		for _, b := range f.Blocks {
			convertRuns(b, minRun, false, &st)
		}
	}
	q.Layout()
	if err := q.Validate(); err != nil {
		return nil, st, fmt.Errorf("compiler: OPP16 pass produced invalid program: %w", err)
	}
	return q, st, nil
}

// ApplyCompress implements the Fine-Grained Thumb Conversion heuristic of
// [78] (§V, Compress): the whole function is converted to Thumb, accepting
// expansion where single-halfword emission is impossible, then isolated
// conversions (runs shorter than 2, whose switch overhead exceeds their
// savings) are reverted — operationally, runs of >= 2 convertible
// instructions convert, expansion-needing ones paying an extra dynamic
// instruction (the ~1.6x effect).
func ApplyCompress(p *prog.Program) (*prog.Program, Stats, error) {
	q := p.Clone()
	var st Stats
	for _, f := range q.Funcs {
		for _, b := range f.Blocks {
			convertRuns(b, 2, true, &st)
		}
	}
	q.Layout()
	if err := q.Validate(); err != nil {
		return nil, st, fmt.Errorf("compiler: Compress pass produced invalid program: %w", err)
	}
	return q, st, nil
}

// convertRuns finds maximal runs of convertible instructions in b and
// converts runs of at least minRun, inserting CDP switches. When
// allowExpand is false, only directly convertible instructions form runs.
func convertRuns(b *prog.Block, minRun int, allowExpand bool, st *Stats) {
	eligible := func(in *prog.Instr) (bool, bool) {
		d, e := convertible(in)
		if !allowExpand {
			return d, false
		}
		return d, e
	}
	type run struct{ start, n int }
	var runs []run
	i := 0
	for i < len(b.Instrs) {
		d, e := eligible(&b.Instrs[i])
		if !d && !e {
			i++
			continue
		}
		j := i
		for j < len(b.Instrs) {
			d, e := eligible(&b.Instrs[j])
			if !d && !e {
				break
			}
			j++
		}
		if j-i >= minRun {
			runs = append(runs, run{start: i, n: j - i})
		}
		i = j
	}
	// Convert from the last run backwards (CDP insertion shifts indices).
	for r := len(runs) - 1; r >= 0; r-- {
		start, n := runs[r].start, runs[r].n
		for k := start; k < start+n; k++ {
			in := &b.Instrs[k]
			_, expand := eligible(in)
			in.Thumb = true
			in.Expanded = expand
			st.ConvertedInstrs++
			if expand {
				st.ExpandedInstrs++
			}
		}
		insertCDPs(b, start, n, st)
	}
}

// StaticThumbFrac reports the fraction of static instructions emitted in T16
// — a quick structural view of a pass's output (the experiment layer weighs
// conversion dynamically via traces for Fig. 13b).
func StaticThumbFrac(p *prog.Program) float64 {
	s := p.ComputeStats()
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.ThumbInstrs) / float64(s.Instrs)
}
