package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one operation share Op; Parent is the id of the enclosing
// span, 0 for an operation's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// count is a quantity observed at a layer boundary during one operation.
type count struct {
	Op    int     `json:"op"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// recorder keeps one workload pass's spans and counts in memory. It is used
// from a single goroutine. A nil recorder records nothing, which is how the
// untraced ops run.
type recorder struct {
	workload string
	epoch    time.Time
	spans    []span
	counts   []count
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// start opens a span now and returns its id (0 on a nil recorder).
func (r *recorder) start(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return len(r.spans)
}

// finish closes span id now.
func (r *recorder) finish(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.epoch))
}

// add records a span whose ends were timed elsewhere, such as a job's queue
// wait taken from the server's own timestamps.
func (r *recorder) add(name string, parent, op int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	return len(r.spans)
}

// count records a quantity observed during op.
func (r *recorder) count(name string, op int, v float64) {
	if r != nil {
		r.counts = append(r.counts, count{Op: op, Name: name, Value: v})
	}
}

// durationsMS returns the duration of every span called name, in ms.
func (r *recorder) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// values returns every count called name.
func (r *recorder) values(name string) []float64 {
	var out []float64
	for _, c := range r.counts {
		if c.Name == name {
			out = append(out, c.Value)
		}
	}
	return out
}

// sum adds up every count called name.
func (r *recorder) sum(name string) float64 {
	t := 0.0
	for _, v := range r.values(name) {
		t += v
	}
	return t
}

// opMS groups the spans called name by operation and returns each
// operation's total, in ms: a layer called twice in one operation counts
// once, with both calls' time.
func (r *recorder) opMS(name string) []float64 {
	byOp := map[int]float64{}
	var order []int
	for _, s := range r.spans {
		if s.Name != name {
			continue
		}
		if _, ok := byOp[s.Op]; !ok {
			order = append(order, s.Op)
		}
		byOp[s.Op] += float64(s.End-s.Start) / 1e6
	}
	out := make([]float64, len(order))
	for i, op := range order {
		out[i] = byOp[op]
	}
	return out
}

// writeTrace writes every recorder's spans and counts as JSON lines to path.
func writeTrace(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(struct {
				Workload string `json:"workload"`
				span
			}{r.workload, s}); err != nil {
				f.Close()
				return err
			}
		}
		for _, c := range r.counts {
			if err := enc.Encode(struct {
				Workload string `json:"workload"`
				count
			}{r.workload, c}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
