package cpu

import (
	"reflect"
	"testing"

	"critics/internal/dfg"
	"critics/internal/isa"
	"critics/internal/trace"
)

// fuzzTrace decodes the fuzz payload into a short synthetic dynamic stream
// that honours the generator's invariants (sequential Seq, producers strictly
// backward, class flags consistent) so both the batched and serial paths see
// a trace shaped like real input — the fuzzer explores machine behaviour, not
// decoder robustness (trace decoding has its own fuzz target).
func fuzzTrace(data []byte) []trace.Dyn {
	n := len(data) / 6
	if n > 2048 {
		n = 2048
	}
	dyns := make([]trace.Dyn, 0, n)
	pc := uint32(0x1000)
	for i := 0; i < n; i++ {
		b := data[i*6 : i*6+6]
		d := trace.Dyn{Seq: int64(i), Addr: pc, Class: isa.Class(b[0] % isa.NumClasses)}
		if b[1]&1 != 0 {
			d.Size, d.Thumb = 2, true
			d.Expanded = b[1]&2 != 0
		} else {
			d.Size = 4
		}
		for k := uint8(0); k < b[2]%3 && int64(k) < d.Seq; k++ {
			// Strictly backward, possibly far past the window start.
			d.Prod[k] = d.Seq - 1 - int64(b[3+k]%200)
			d.NProd = k + 1
		}
		switch d.Class {
		case isa.ClassLoad:
			d.IsLoad = true
			d.MemAddr = trace.DataBase + uint32(b[4])<<6 + uint32(b[5])
		case isa.ClassStore:
			d.IsStore = true
			d.MemAddr = trace.DataBase + uint32(b[4])<<6 + uint32(b[5])
		case isa.ClassBranch, isa.ClassCall, isa.ClassRet:
			d.IsBranch = true
			d.IsCond = d.Class == isa.ClassBranch && b[4]&1 != 0
			d.Taken = !d.IsCond || b[4]&2 != 0
			d.Target = (0x1000 + uint32(b[5])<<3) &^ 3
			if d.Class == isa.ClassCall {
				d.Op = isa.OpBL
			} else if d.Class == isa.ClassRet {
				d.Op = isa.OpBX
			}
		case isa.ClassCDP:
			d.IsCDP = true
			d.CDPCount = 1 + b[4]%3
		}
		if d.IsBranch && d.Taken {
			pc = d.Target
		} else {
			pc += uint32(d.Size)
		}
		dyns = append(dyns, d)
	}
	return dyns
}

// fuzzConfig decodes one lane's machine knobs from two payload bytes,
// spanning the same axes the design-space sweeps vary.
func fuzzConfig(b0, b1 byte) Config {
	cfg := DefaultConfig()
	if b0&1 != 0 {
		cfg.FetchBytes *= 2
		cfg.FetchWidth *= 2
		cfg.DecodeWidth *= 2
	}
	if b0&2 != 0 {
		cfg.BPU.Perfect = true
	}
	if b0&4 != 0 {
		cfg.BackendPrio = true
	}
	if b0&8 != 0 {
		cfg.CriticalLoadPrefetch = true
	}
	if b0&16 != 0 {
		cfg.CDPExtraDecodeCycle = false
	}
	if b0&32 != 0 {
		cfg.CollectRecords = true
	}
	if b0&64 != 0 {
		cfg.ROBSize, cfg.IQSize = 48, 24
	}
	if b0&128 != 0 {
		cfg.Hier.L1I.SizeBytes *= 4
	}
	if b1&1 != 0 {
		cfg.Hier.L1D.SizeBytes *= 2
	}
	return cfg
}

// FuzzBatchSim cross-checks BatchSim lane by lane against serial
// Sim.RunStream on fuzz-chosen variant sets (machine knobs per lane) and
// fuzz-synthesized short traces: any divergence, panic, or deadlock in the
// lockstep broadcast is a finding.
func FuzzBatchSim(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03\x07\x01\x00\x24\x02\x85\x40" +
		"\x04\x01\x02\x05\x09\x11\x06\x00\x01\x30\x41\x52\x0a\x00\x02\x17\x63\x74"))
	f.Add([]byte("\xff\x9c\x42\x00" +
		"\x06\x00\x01\x00\x00\x00\x04\x00\x02\x01\x02\x90\x05\x01\x01\x03\x44\x55" +
		"\x0c\x00\x00\x00\x02\x00\x07\x01\x01\x08\x20\x00\x08\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		lanes := 1 + int(data[0]%4)
		cfgs := make([]Config, lanes)
		for i := range cfgs {
			cfgs[i] = fuzzConfig(data[1+i%2], data[2])
		}
		chunk := []int{1, 7, 64, 256, 1024}[int(data[3])%5]
		dyns := fuzzTrace(data[4:])

		want := make([]Result, lanes)
		for i, cfg := range cfgs {
			fs := dfg.NewFanoutStream(trace.NewSliceSource(dyns, chunk), 128)
			want[i] = New(cfg).RunStream(fs)
		}
		got := NewBatch(cfgs).RunStream(dfg.NewFanoutStream(trace.NewSliceSource(dyns, chunk), 128))
		for i := range cfgs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("lane %d of %d (chunk %d, %d dyns): batched Result differs from serial",
					i, lanes, chunk, len(dyns))
			}
		}
	})
}
