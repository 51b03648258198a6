package cpu

import "math/bits"

// critEntry is one criticality-table entry. Entries are stored inline in a
// flat open-addressed array (critTable) rather than behind per-PC pointers:
// the table is probed on every commit (training) and, under BackendPrio, on
// every issue-queue scan, so the dense layout keeps the hot path free of map
// overhead and pointer chasing. The profile data itself is unchanged — a
// saturating criticality confidence plus, for loads, a stride predictor.
type critEntry struct {
	pc       uint32 // instruction address (the key); valid when used
	used     bool
	crit     uint8 // saturating criticality confidence
	conf     uint8 // stride confidence
	stride   int32
	lastAddr uint32
}

// critTable maps instruction PCs to criticality state: an open-addressed,
// linearly-probed hash table with exact-match semantics — behaviourally
// identical to the map[uint32]*critEntry it replaces (same entries, same
// training updates), so simulation results are bit-identical; only the memory
// layout and probe cost change. Growth doubles the array at 3/4 load and
// re-inserts, which is deterministic and invisible to results.
type critTable struct {
	entries []critEntry
	n       int    // used entries
	shift   uint32 // 32 - log2(len(entries)): critHash keeps the top bits
}

const critTableInitSize = 256 // power of two

// critHash spreads a PC over a table of 1<<(32-shift) slots by Fibonacci
// hashing. It keeps the product's high bits: PCs are 4-byte aligned (2-byte
// in Thumb runs), so the low bits of pc*odd are zero too, and a low-bit mask
// would leave up to three quarters of the slots unable to be a home slot.
func critHash(pc, shift uint32) uint32 {
	return (pc * 0x9E3779B1) >> shift
}

// alloc replaces the table's storage with size empty slots (a power of two).
func (t *critTable) alloc(size int) {
	t.entries = make([]critEntry, size)
	t.shift = 32 - uint32(bits.TrailingZeros(uint(size)))
}

// lookup returns the entry for pc, or nil when absent.
func (t *critTable) lookup(pc uint32) *critEntry {
	if len(t.entries) == 0 {
		return nil
	}
	mask := uint32(len(t.entries) - 1)
	for i := critHash(pc, t.shift); ; i = (i + 1) & mask {
		e := &t.entries[i]
		if !e.used {
			return nil
		}
		if e.pc == pc {
			return e
		}
	}
}

// insert returns the entry for pc, creating a zero-valued one when absent.
// The returned pointer is valid until the next insert (growth re-slots
// entries).
func (t *critTable) insert(pc uint32) *critEntry {
	if len(t.entries) == 0 {
		t.alloc(critTableInitSize)
	} else if 4*(t.n+1) > 3*len(t.entries) {
		t.grow()
	}
	mask := uint32(len(t.entries) - 1)
	for i := critHash(pc, t.shift); ; i = (i + 1) & mask {
		e := &t.entries[i]
		if !e.used {
			e.used = true
			e.pc = pc
			t.n++
			return e
		}
		if e.pc == pc {
			return e
		}
	}
}

// grow doubles the table and re-inserts every used entry.
func (t *critTable) grow() {
	old := t.entries
	t.alloc(2 * len(old))
	mask := uint32(len(t.entries) - 1)
	for i := range old {
		e := &old[i]
		if !e.used {
			continue
		}
		j := critHash(e.pc, t.shift)
		for t.entries[j].used {
			j = (j + 1) & mask
		}
		t.entries[j] = *e
	}
}
