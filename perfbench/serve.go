package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"time"

	"critics"
	"critics/internal/artifact"
	"critics/internal/server"
	"critics/internal/workload"
)

// The serve-mixed traffic: an open loop at a fixed rate, well below what the
// daemon sustains on two vCPUs, so latency is the server's and not a queue's.
// In every block of ten ops one is a blob upload at a seeded slot and the
// rest are optimize jobs; every gcEvery-th upload block also asks for an
// artifact GC, so the disk tier does not grow.
const (
	serveRate     = 100       // ops per second
	serveBlobSize = 256 << 10 // bytes per uploaded blob
	serveChunk    = 128 << 10 // bytes per upload PUT
	gcEvery       = 16        // upload blocks per GC
	pollInterval  = 200 * time.Microsecond
	jobTimeout    = 10 * time.Second
)

type opKind int

const (
	opRead opKind = iota
	opWrite
	opGC
)

// serveOp is one scheduled request of the open loop.
type serveOp struct {
	kind opKind
	app  string // opRead
	due  time.Duration
}

// serveOps returns the seeded schedule of n ops.
func serveOps(rng *rand.Rand, n int) []serveOp {
	apps := workload.MobileApps()
	ops := make([]serveOp, 0, n)
	for b := 0; len(ops) < n; b++ {
		perm := rng.Perm(len(apps))
		write := rng.Intn(10)
		for slot := 0; slot < 10 && len(ops) < n; slot++ {
			o := serveOp{kind: opRead, app: apps[perm[slot]].Params.Name}
			switch {
			case slot == write:
				o.kind = opWrite
			case slot == (write+5)%10 && (b+1)%gcEvery == 0:
				o.kind = opGC
			}
			o.due = time.Duration(len(ops)) * time.Second / serveRate
			ops = append(ops, o)
		}
	}
	return ops
}

// daemon is an in-process criticd with its HTTP endpoint and the job
// results fetched at set-up, by app.
type daemon struct {
	srv      *server.Server
	hs       *httptest.Server
	hc       *http.Client
	storeDir string
	results  map[string][]byte
}

func (d *daemon) close() {
	d.hs.Close()
	d.hc.CloseIdleConnections()
	_ = d.srv.Shutdown(context.Background()) // jobs are all finished or failed by now
	_ = os.RemoveAll(d.storeDir)             // best effort: the directory is under .bench_build
}

// startDaemon starts criticd over an artifact store in the checkout's build
// directory, runs one optimize job per app so the results are cached, and
// checks each result against the recorded report.
func startDaemon(want *expected) (*daemon, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "artifacts-")
	if err != nil {
		return nil, err
	}
	// The memory tier is off, so every upload commits through the disk tier.
	st, err := artifact.Open(artifact.Config{Dir: dir, MemBytes: -1})
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		srv:      server.New(server.Config{Artifacts: st}),
		storeDir: dir,
		results:  map[string][]byte{},
	}
	d.hs = httptest.NewServer(d.srv.Handler())
	d.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
	}}
	for _, a := range workload.MobileApps() {
		name := a.Params.Name
		id, err := d.submit(name)
		if err != nil {
			d.close()
			return nil, err
		}
		for {
			js, err := d.status(id)
			if err != nil {
				d.close()
				return nil, err
			}
			if js.State.Terminal() {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		body, err := d.get("/v1/jobs/" + id + "/result")
		if err != nil {
			d.close()
			return nil, err
		}
		var res struct {
			Report critics.Report `json:"report"`
		}
		err = json.Unmarshal(body, &res)
		if err == nil {
			err = want.checkReport(name, keyOf(&res.Report))
		}
		if err != nil {
			d.close()
			return nil, err
		}
		d.results[name] = body
	}
	return d, nil
}

func (d *daemon) do(method, path string, body io.Reader, hdr map[string]string) ([]byte, int, error) {
	req, err := http.NewRequest(method, d.hs.URL+path, body)
	if err != nil {
		return nil, 0, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return data, resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, resp.StatusCode, nil
}

func (d *daemon) get(path string) ([]byte, error) {
	b, _, err := d.do(http.MethodGet, path, nil, nil)
	return b, err
}

// errRejected marks a request the daemon refused with 429.
var errRejected = errors.New("rejected with 429")

func (d *daemon) submit(app string) (string, error) {
	body, _ := json.Marshal(server.SubmitRequest{Kind: server.KindOptimize, App: app, Quick: true}) // a plain struct always marshals
	data, code, err := d.do(http.MethodPost, "/v1/jobs", bytes.NewReader(body), map[string]string{"Content-Type": "application/json"})
	if code == http.StatusTooManyRequests {
		return "", errRejected
	}
	if err != nil {
		return "", err
	}
	var js server.JobStatus
	if err := json.Unmarshal(data, &js); err != nil {
		return "", err
	}
	return js.ID, nil
}

func (d *daemon) status(id string) (server.JobStatus, error) {
	var js server.JobStatus
	data, err := d.get("/v1/jobs/" + id)
	if err == nil {
		err = json.Unmarshal(data, &js)
	}
	return js, err
}

// pendingJob is a submitted optimize job not yet seen finished.
type pendingJob struct {
	op     int
	id     string
	app    string
	due    time.Time
	sent   time.Time // when the submit began
	root   int       // span id of the op, when traced
	traced bool
}

// serveRun is the state of one serve-mixed timed phase.
type serveRun struct {
	d       *daemon
	p       *phase
	rc      runConfig
	rng     *rand.Rand
	pending []pendingJob

	polls, reads, admissions, rejected int
	lateMS                             []float64
}

// runServe is the serve-mixed workload: an in-process criticd driven by an
// open loop from a single goroutine. Reads are optimize jobs whose results
// were cached at set-up; writes are chunked uploads of fresh seeded blobs.
// Every op is timed from when it was due. A job's queue wait and compute
// come from the server's own timestamps, and its completion is observed by
// a fixed short poll, so no client back-off enters the latency.
func runServe(rc runConfig, want *expected) (*phase, map[string]float64, error) {
	rng := rand.New(rand.NewSource(rc.seed))
	ops := serveOps(rng, serveRate*rc.seconds)
	p := &phase{}
	var d *daemon
	for s := 0; s < rc.setups; s++ {
		if d != nil {
			d.close()
			d = nil
		}
		if err := p.setup(func() error {
			var err error
			if d, err = startDaemon(want); err != nil {
				return err
			}
			// Warm-up: one round of reads and an upload, untimed.
			warm := &serveRun{d: d, p: &phase{}, rng: rand.New(rand.NewSource(rc.seed + 1))}
			warm.play(serveOps(warm.rng, 20))
			if warm.p.failed > 0 {
				return fmt.Errorf("warm-up: %s", warm.p.firstFailure)
			}
			return nil
		}); err != nil {
			return nil, nil, fmt.Errorf("serve-mixed set-up: %w", err)
		}
	}
	defer d.close()

	sr := &serveRun{d: d, p: p, rc: rc, rng: rng}
	p.begin()
	sr.play(ops)
	p.finish()
	p.notes = append(p.notes, fmt.Sprintf("offered rate %d ops/s; %d status polls for %d jobs", serveRate, sr.polls, sr.reads))

	r := rc.rec
	if r == nil {
		return p, nil, nil
	}
	lateTail, _, _ := tail(sr.lateMS)
	layers := map[string]float64{
		"server.submit_ms":     median(r.durationsMS("server.submit")),
		"server.queue_wait_ms": median(r.durationsMS("server.queue_wait")),
		"server.compute_ms":    median(r.durationsMS("server.compute")),
		"server.result_ms":     median(r.durationsMS("server.result")),
		"server.rejected_frac": float64(sr.rejected) / float64(sr.admissions),
		"server.polls_per_job": float64(sr.polls) / float64(sr.reads),
		"artifact.upload_ms":   median(r.durationsMS("artifact.upload")),
		"artifact.chunk_ms":    median(r.durationsMS("artifact.chunk")),
		"artifact.gc_ms":       median(r.durationsMS("artifact.gc")),
		"loadgen.late_ms":      lateTail,
	}
	return p, layers, nil
}

// play runs the schedule and then waits for the jobs still outstanding.
// Each upload's blob is filled before its due time, so making it delays
// nothing; one buffer serves every upload, as each finishes within its op.
func (s *serveRun) play(ops []serveOp) {
	due := make([]time.Duration, len(ops))
	for i, o := range ops {
		due[i] = o.due
	}
	blob := make([]byte, serveBlobSize)
	prepare := func(i int) {
		if ops[i].kind == opWrite {
			s.rng.Read(blob)
		}
	}
	send := func(i int, due time.Time) {
		traced := s.rc.traced(i)
		switch ops[i].kind {
		case opRead:
			s.read(i, ops[i].app, due, traced)
		case opWrite:
			s.write(i, blob, due, traced)
		case opGC:
			s.gc(i, due, traced)
		}
	}
	s.lateMS = openLoop(time.Now(), due, prepare, s.pollUntil, send)
	s.pollUntil(time.Time{})
}

// openLoop sends op i at start+due[i] whatever earlier replies take: it
// calls prepare(i), then wait with the due time (wait returns once that
// time has come), then send. It returns how late, in ms, each op was sent.
// send times an op from its due time, not from when it was sent, so a stall
// is charged to every op it delays.
func openLoop(start time.Time, due []time.Duration, prepare func(int), wait func(time.Time), send func(int, time.Time)) []float64 {
	late := make([]float64, len(due))
	for i, d := range due {
		prepare(i)
		t := start.Add(d)
		wait(t)
		late[i] = ms(time.Since(t))
		send(i, t)
	}
	return late
}

// rec returns the recorder for a traced op, nil otherwise.
func (s *serveRun) rec(traced bool) *recorder {
	if traced {
		return s.rc.rec
	}
	return nil
}

func (s *serveRun) read(op int, app string, due time.Time, traced bool) {
	r := s.rec(traced)
	root := r.add("serve.read", 0, op, due, due)
	sp := r.start("server.submit", root, op)
	s.admissions++
	sent := time.Now()
	id, err := s.d.submit(app)
	r.finish(sp)
	if err != nil {
		if errors.Is(err, errRejected) {
			s.rejected++
		}
		s.p.op(0, halfOf(traced), err)
		return
	}
	s.pending = append(s.pending, pendingJob{op: op, id: id, app: app, due: due, sent: sent, root: root, traced: traced})
}

// pollUntil polls the oldest outstanding job every pollInterval until
// deadline; a zero deadline polls until no job is outstanding.
func (s *serveRun) pollUntil(deadline time.Time) {
	for {
		now := time.Now()
		if !deadline.IsZero() && !now.Before(deadline) {
			return
		}
		if len(s.pending) == 0 {
			if deadline.IsZero() {
				return
			}
			time.Sleep(min(deadline.Sub(now), pollInterval))
			continue
		}
		j := s.pending[0]
		s.polls++
		js, err := s.d.status(j.id)
		switch {
		case err != nil:
			s.done(err, j, 0)
		case js.State.Terminal():
			s.finishJob(j, js)
		case time.Since(j.due) > jobTimeout:
			s.done(fmt.Errorf("job %s (%s) not finished %v after it was due", j.id, j.app, jobTimeout), j, 0)
		default:
			wait := pollInterval
			if !deadline.IsZero() {
				wait = min(wait, time.Until(deadline))
			}
			time.Sleep(wait)
		}
	}
}

// finishJob fetches and checks a finished job's result. The op's latency
// runs from when it was due to when the server finished it, plus the result
// fetch.
func (s *serveRun) finishJob(j pendingJob, js server.JobStatus) {
	if js.State != server.StateSucceeded || js.StartedAt == nil || js.FinishedAt == nil {
		s.done(fmt.Errorf("job %s (%s) ended %s: %s", j.id, j.app, js.State, js.Error), j, 0)
		return
	}
	// The server's timestamps carry only the wall clock, which can be
	// stepped while a run goes on; each is placed on the monotonic clock by
	// its distance from this job's own submit, a millisecond or so earlier.
	local := func(t time.Time) time.Time { return j.sent.Add(t.Sub(j.sent)) }
	r := s.rec(j.traced)
	r.add("server.queue_wait", j.root, j.op, local(js.CreatedAt), local(*js.StartedAt))
	r.add("server.compute", j.root, j.op, local(*js.StartedAt), local(*js.FinishedAt))
	sp := r.start("server.result", j.root, j.op)
	t := time.Now()
	body, err := s.d.get("/v1/jobs/" + j.id + "/result")
	fetch := time.Since(t)
	r.finish(sp)
	if err == nil && !bytes.Equal(body, s.d.results[j.app]) {
		err = fmt.Errorf("job %s (%s): result differs from the one fetched at set-up", j.id, j.app)
	}
	s.reads++
	s.done(err, j, ms(local(*js.FinishedAt).Sub(j.due)+fetch))
}

// done retires the oldest outstanding job.
func (s *serveRun) done(err error, j pendingJob, latMS float64) {
	s.pending = s.pending[1:]
	if r := s.rec(j.traced); r != nil {
		r.spans[j.root-1].End = int64(time.Since(r.epoch))
	}
	s.p.op(latMS, halfOf(j.traced), err)
}

// write uploads blob in serveChunk PUTs through the resumable upload
// protocol and checks that the daemon committed it under the digest the
// benchmark computes itself.
func (s *serveRun) write(op int, blob []byte, due time.Time, traced bool) {
	r := s.rec(traced)
	root := r.add("serve.write", 0, op, due, due)
	sp := r.start("artifact.upload", root, op)
	sum := sha256.Sum256(blob)
	digest := artifact.Prefix + hex.EncodeToString(sum[:])
	var err error
	var st server.ArtifactUploadStatus
	for off := 0; off < len(blob) && err == nil; off += serveChunk {
		end := min(off+serveChunk, len(blob))
		hdr := map[string]string{
			"Content-Type":            "application/octet-stream",
			server.HeaderUploadOffset: strconv.Itoa(off),
		}
		if end == len(blob) {
			hdr[server.HeaderUploadFinal] = "1"
		}
		c := r.start("artifact.chunk", sp, op)
		s.admissions++
		var data []byte
		var code int
		data, code, err = s.d.do(http.MethodPut, "/v1/artifacts/"+digest, bytes.NewReader(blob[off:end]), hdr)
		r.finish(c)
		if code == http.StatusTooManyRequests {
			s.rejected++
		}
		if err == nil {
			err = json.Unmarshal(data, &st)
		}
	}
	r.finish(sp)
	if err == nil && (!st.Complete || st.Digest != digest || st.Committed != int64(len(blob))) {
		err = fmt.Errorf("upload of %s ended as %+v", digest, st)
	}
	s.finishInline(r, root, op, due, traced, err)
}

// gc asks the daemon to drop unreferenced blobs, which is every upload so
// far.
func (s *serveRun) gc(op int, due time.Time, traced bool) {
	r := s.rec(traced)
	root := r.add("serve.gc", 0, op, due, due)
	sp := r.start("artifact.gc", root, op)
	data, _, err := s.d.do(http.MethodPost, "/v1/artifacts/gc", nil, nil)
	r.finish(sp)
	var resp server.ArtifactGCResponse
	if err == nil {
		err = json.Unmarshal(data, &resp)
	}
	s.finishInline(r, root, op, due, traced, err)
}

// finishInline records an op that completed within its own request.
func (s *serveRun) finishInline(r *recorder, root, op int, due time.Time, traced bool, err error) {
	if r != nil {
		r.spans[root-1].End = int64(time.Since(r.epoch))
	}
	s.p.op(ms(time.Since(due)), halfOf(traced), err)
}
