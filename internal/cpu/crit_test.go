package cpu

import "testing"

// TestCritHashSpreadsAlignedPCs: A32 instruction addresses are 4-byte
// aligned, so a hash that kept the product's low bits could only ever home
// such a PC in a quarter of the slots. A run of aligned PCs as long as the
// table must land on more than half of its home slots.
func TestCritHashSpreadsAlignedPCs(t *testing.T) {
	for _, size := range []int{critTableInitSize, 1 << 15} {
		var tab critTable
		tab.alloc(size)
		homes := make(map[uint32]bool)
		for i := 0; i < size; i++ {
			h := critHash(0x8000+4*uint32(i), tab.shift)
			if int(h) >= size {
				t.Fatalf("size %d: home slot %d out of range", size, h)
			}
			homes[h] = true
		}
		if len(homes) <= size/2 {
			t.Errorf("size %d: %d aligned PCs used only %d home slots", size, size, len(homes))
		}
	}
}

// TestCritTableMatchesMap: the open-addressed table keeps exact-match map
// semantics across growth — every inserted PC is found with its own state,
// and absent PCs are not.
func TestCritTableMatchesMap(t *testing.T) {
	var tab critTable
	want := make(map[uint32]uint8)
	for i := uint32(0); i < 5000; i++ {
		pc := 0x10000 + 4*(i*7919%20000)
		e := tab.insert(pc)
		e.crit++
		want[pc]++
	}
	if tab.n != len(want) {
		t.Fatalf("table holds %d entries, want %d", tab.n, len(want))
	}
	for pc, c := range want {
		e := tab.lookup(pc)
		if e == nil || e.pc != pc || e.crit != c {
			t.Fatalf("lookup(%#x) = %+v, want crit %d", pc, e, c)
		}
	}
	if e := tab.lookup(0x4); e != nil {
		t.Errorf("lookup of an absent PC returned %+v", e)
	}
}
