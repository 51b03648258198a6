package compiler

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"critics/internal/core"
	"critics/internal/prog"
	"critics/internal/trace"
	"critics/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// quickProfilePlan is the quick-scale profiling plan (exp.QuickContext).
var quickProfilePlan = trace.SamplePlan{Samples: 6, Length: 15_000, Gap: 4_000, Warmup: 5_000}

// programDigest hashes a compiled program's laid-out instruction stream:
// per instruction its address, opcode and operands, emission format, CDP
// count and chain tag.
func programDigest(p *prog.Program) string {
	h := sha256.New()
	var buf [24]byte
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				binary.LittleEndian.PutUint32(buf[0:], in.Addr)
				buf[4] = byte(in.Op)
				buf[5] = byte(in.Cond)
				buf[6] = byte(in.Rd)
				buf[7] = byte(in.Rn)
				buf[8] = byte(in.Rm)
				binary.LittleEndian.PutUint32(buf[9:], uint32(in.Imm))
				buf[13] = boolByte(in.HasImm)
				buf[14] = boolByte(in.Thumb)
				binary.LittleEndian.PutUint32(buf[15:], uint32(in.CDPCount))
				binary.LittleEndian.PutUint32(buf[19:], uint32(in.ChainID))
				buf[23] = 0xff // instruction separator
				h.Write(buf[:])
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// TestCritICPassGolden pins the CritIC pass's output for every mobile
// catalog app at quick scale under the four configurations the experiments
// use: the Stats and a digest of each compiled program. Any change to the
// legality oracle, the hoisting order or switch insertion that alters a
// single emitted instruction shows up here.
func TestCritICPassGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles the whole mobile catalog; skipped in -short")
	}
	configs := []struct {
		name  string
		ideal bool
		opt   Options
	}{
		{"cdp", false, Options{MaxLen: 5, Switch: SwitchCDP}},
		{"branch", false, Options{MaxLen: 5, Switch: SwitchBranch}},
		{"hoist", false, Options{MaxLen: 5, HoistOnly: true}},
		{"ideal", true, Options{MaxLen: core.MaxChainLen, Switch: SwitchCDP, Ideal: true}},
	}
	var sb strings.Builder
	for _, a := range workload.MobileApps() {
		p := workload.Generate(a.Params)
		ws := trace.Collect(p, a.Params.Seed, quickProfilePlan)
		profs := map[bool]*core.Profile{}
		for _, ideal := range []bool{false, true} {
			cfg := core.DefaultConfig()
			cfg.RequireThumb = !ideal
			profs[ideal] = core.BuildProfile(p, ws, cfg)
		}
		for _, c := range configs {
			q, st, err := ApplyCritIC(p, profs[c.ideal], c.opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", a.Params.Name, c.name, err)
			}
			fmt.Fprintf(&sb, "%s %s %+v %s\n", a.Params.Name, c.name, st, programDigest(q))
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "critic_pass.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run TestCritICPassGolden -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("CritIC pass output drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
