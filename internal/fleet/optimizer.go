package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"

	"critics/internal/core"
	"critics/internal/cpu"
	"critics/internal/exp"
	"critics/internal/obs"
	"critics/internal/sketch"
	"critics/internal/workload"
)

// Candidate is one CritIC selection policy the optimizer considers: the
// compiled variant kind whose measured speedup the memoized measurement
// path supplies, plus the matching selection policy applied to the fleet
// consensus profile to score how much of the fleet's observed dynamic
// stream the policy covers.
type Candidate struct {
	// Name identifies the candidate in reports and metrics; it equals the
	// exp variant kind it measures.
	Name string

	// Kind is the exp.Context variant kind measured against VarBase.
	Kind string

	// Sel is the selection policy scored against the consensus profile.
	Sel core.Config

	// ExactLen, when > 0, restricts consensus coverage to selected chains
	// of exactly this length (the critic-len-N variants compile only
	// those).
	ExactLen int
}

// DefaultCandidates returns the generation-0 candidate pool: the paper's
// operating point, the ideal (representability-relaxed) selection, and the
// exact-length policies of Fig. 12a.
func DefaultCandidates() []Candidate {
	std := core.DefaultConfig()
	ideal := std
	ideal.RequireThumb = false
	ideal.MaxLen = core.MaxChainLen
	out := []Candidate{
		{Name: exp.VarCritIC, Kind: exp.VarCritIC, Sel: std},
		{Name: exp.VarCritICIdeal, Kind: exp.VarCritICIdeal, Sel: ideal},
	}
	for n := 2; n <= 5; n++ {
		sel := std
		sel.MaxLen = n
		out = append(out, Candidate{
			Name:     fmt.Sprintf("critic-len-%d", n),
			Kind:     fmt.Sprintf("critic-len-%d", n),
			Sel:      sel,
			ExactLen: n,
		})
	}
	return out
}

// CandidateScore is one candidate's A/B outcome in a generation.
type CandidateScore struct {
	Name       string  `json:"name"`
	SpeedupPct float64 `json:"speedup_pct"` // measured vs base (memoized sweep)
	Coverage   float64 `json:"coverage"`    // consensus dynamic-stream coverage
	Score      float64 `json:"score"`       // combined ranking value
}

// Generation is one optimizer iteration: every surviving candidate scored
// against the consensus snapshot.
type Generation struct {
	Index  int              `json:"index"`
	Scores []CandidateScore `json:"scores"`
	Winner string           `json:"winner"`
}

// Report is the outcome of one converge run.
type Report struct {
	App         string       `json:"app"`
	Revision    uint64       `json:"revision"` // consensus revision scored against
	Devices     float64      `json:"devices_estimate"`
	Generations []Generation `json:"generations"`
	Converged   bool         `json:"converged"`
	Winner      string       `json:"winner"`

	// SelectedChains and WinnerDigest describe the winning selection over
	// the consensus profile; the digest is the byte-identity witness of
	// closed-loop determinism (same consensus → same selected CritICs).
	SelectedChains int     `json:"selected_chains"`
	Coverage       float64 `json:"coverage"`
	WinnerDigest   string  `json:"winner_digest"`
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet converge %s (consensus rev %d, ~%.0f devices)\n", r.App, r.Revision, r.Devices)
	for _, g := range r.Generations {
		fmt.Fprintf(&b, "  gen %d: winner %s over %d candidates\n", g.Index, g.Winner, len(g.Scores))
		for _, sc := range g.Scores {
			fmt.Fprintf(&b, "    %-14s speedup %6.2f%%  coverage %5.1f%%  score %.4f\n",
				sc.Name, sc.SpeedupPct, 100*sc.Coverage, sc.Score)
		}
	}
	state := "not converged"
	if r.Converged {
		state = "converged"
	}
	fmt.Fprintf(&b, "  %s: winner %s, %d selected chains, coverage %.1f%%, digest %s\n",
		state, r.Winner, r.SelectedChains, 100*r.Coverage, r.WinnerDigest)
	return b.String()
}

// ConvergeOptions tunes a converge run. The zero value selects defaults.
type ConvergeOptions struct {
	// Revision is the consensus revision being scored, echoed into the
	// report for status displays.
	Revision uint64

	// MaxGenerations bounds the iteration (default 4).
	MaxGenerations int

	// Candidates is the generation-0 pool (default DefaultCandidates).
	Candidates []Candidate

	// Service, when set, receives per-generation flight-recorder events.
	Service *Service
}

// Converge runs the iterative optimizer for one app against a consensus
// snapshot: each generation measures the surviving candidates through the
// memoized, batched sweep path (exp.MeasureSweep), scores measured
// speedup against fleet-observed coverage, halves the pool around the
// winner, and stops when the winner repeats (or the pool is down to one).
//
// Determinism: measurements are content-addressed and bit-identical,
// coverage is a pure function of the consensus snapshot, and candidate
// order breaks ties — so two runs against byte-identical consensus
// sketches produce byte-identical reports (modulo nothing: even the digest
// matches). A later run against an advanced consensus re-scores from the
// cached measurements and only the coverage term moves.
func Converge(ctx context.Context, ec *exp.Context, app workload.App, consensus *sketch.Sketch, opts ConvergeOptions) (*Report, error) {
	if opts.MaxGenerations <= 0 {
		opts.MaxGenerations = 4
	}
	pool := opts.Candidates
	if pool == nil {
		pool = DefaultCandidates()
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("fleet: empty candidate pool")
	}
	if len(consensus.Keys) == 0 {
		return nil, fmt.Errorf("fleet: consensus for %s has no chain keys yet", consensus.App)
	}

	rep := &Report{App: app.Params.Name, Revision: opts.Revision, Devices: consensus.DevicesEstimate()}
	prof := consensus.Profile()

	prevWinner := ""
	for gen := 0; gen < opts.MaxGenerations; gen++ {
		g, err := runGeneration(ctx, ec, app, prof, pool, gen)
		if err != nil {
			return nil, err
		}
		rep.Generations = append(rep.Generations, *g)
		if opts.Service != nil && opts.Service.cfg.Ring != nil {
			opts.Service.cfg.Ring.Append("fleet:"+app.Params.Name, obs.EvGeneration,
				fmt.Sprintf("gen=%d winner=%s candidates=%d", gen, g.Winner, len(g.Scores)))
		}
		if g.Winner == prevWinner || len(pool) == 1 {
			rep.Converged = true
			rep.Winner = g.Winner
			break
		}
		prevWinner = g.Winner
		rep.Winner = g.Winner
		pool = survivors(pool, g)
	}

	// The winning selection over the consensus profile: what the fleet's
	// compilers would apply next, and the determinism witness.
	win := candidateByName(opts.Candidates, rep.Winner)
	prof.Select(win.Sel)
	digest := sha256.New()
	digest.Write([]byte(rep.App))
	n, covered := 0, int64(0)
	for i := range prof.Entries {
		e := &prof.Entries[i]
		if !e.Selected || (win.ExactLen > 0 && e.Length != win.ExactLen) {
			continue
		}
		n++
		covered += e.DynInstrs()
		digest.Write(keyBytes(e.Key))
	}
	rep.SelectedChains = n
	if prof.TotalDyn > 0 {
		rep.Coverage = float64(covered) / float64(prof.TotalDyn)
	}
	rep.WinnerDigest = hex.EncodeToString(digest.Sum(nil)[:8])
	return rep, nil
}

// runGeneration measures and scores one candidate pool.
func runGeneration(ctx context.Context, ec *exp.Context, app workload.App, prof *core.Profile, pool []Candidate, gen int) (*Generation, error) {
	var t *obs.Trace
	var parent string
	var start int64
	if tr, par, ok := obs.FromContext(ctx); ok {
		t, parent = tr, par
		start = t.Now()
	}

	units := make([]exp.MeasureUnit, 0, len(pool)+1)
	units = append(units, exp.MeasureUnit{Kind: exp.VarBase, Cfg: cpu.DefaultConfig()})
	for _, c := range pool {
		units = append(units, exp.MeasureUnit{Kind: c.Kind, Cfg: cpu.DefaultConfig()})
	}
	ms := ec.MeasureSweep(app, units, false)
	if err := ec.Err(); err != nil {
		return nil, err
	}
	base := ms[0]
	if base == nil {
		return nil, fmt.Errorf("fleet: base measurement unavailable")
	}

	g := &Generation{Index: gen}
	best := -1
	bestScore := math.Inf(-1)
	for i, c := range pool {
		m := ms[i+1]
		if m == nil {
			return nil, fmt.Errorf("fleet: measurement for candidate %s unavailable", c.Name)
		}
		cov := coverage(prof, c)
		sp := exp.Speedup(base, m)
		// A/B score: measured speedup weighted by how much of the fleet's
		// observed stream the policy reaches. The floor term keeps a
		// zero-coverage policy comparable instead of collapsing every score
		// to zero.
		score := (1 + sp/100) * (0.05 + cov)
		g.Scores = append(g.Scores, CandidateScore{Name: c.Name, SpeedupPct: sp, Coverage: cov, Score: score})
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	g.Winner = pool[best].Name

	if t != nil {
		now := t.Now()
		t.Add(obs.Span{
			ID: fmt.Sprintf("fleet:g%d", gen), Parent: parent,
			Name: fmt.Sprintf("generation %d", gen), StartUS: start, DurUS: now - start,
			Attrs: []obs.Attr{
				obs.A("winner", g.Winner),
				obs.A("candidates", fmt.Sprint(len(g.Scores))),
			},
		})
	}
	return g, nil
}

// coverage scores one policy's consensus dynamic-stream coverage.
func coverage(prof *core.Profile, c Candidate) float64 {
	prof.Select(c.Sel)
	if c.ExactLen == 0 {
		return prof.SelectedCoverage
	}
	if prof.TotalDyn == 0 {
		return 0
	}
	var covered int64
	for i := range prof.Entries {
		e := &prof.Entries[i]
		if e.Selected && e.Length == c.ExactLen {
			covered += e.DynInstrs()
		}
	}
	return float64(covered) / float64(prof.TotalDyn)
}

// survivors keeps the top half of the pool by generation score (winner
// always included), preserving candidate order for deterministic
// tie-breaks.
func survivors(pool []Candidate, g *Generation) []Candidate {
	keep := (len(pool) + 1) / 2
	if keep < 1 {
		keep = 1
	}
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return g.Scores[idx[a]].Score > g.Scores[idx[b]].Score })
	sel := map[int]bool{}
	for _, i := range idx[:keep] {
		sel[i] = true
	}
	out := make([]Candidate, 0, keep)
	for i, c := range pool {
		if sel[i] || c.Name == g.Winner {
			out = append(out, c)
		}
	}
	return out
}

// candidateByName resolves a candidate from the generation-0 pool (nil pool
// selects the defaults).
func candidateByName(pool []Candidate, name string) Candidate {
	if pool == nil {
		pool = DefaultCandidates()
	}
	for _, c := range pool {
		if c.Name == name {
			return c
		}
	}
	return pool[0]
}

// keyBytes serializes a chain key for digesting.
func keyBytes(k core.ChainKey) []byte {
	b := make([]byte, 0, 5+core.MaxChainLen)
	b = append(b, byte(k.Func>>8), byte(k.Func), byte(k.Block>>8), byte(k.Block), k.N)
	b = append(b, k.Idx[:k.N]...)
	return b
}
