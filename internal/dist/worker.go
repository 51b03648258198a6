package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"critics/internal/artifact"
	"critics/internal/exp"
	"critics/internal/obs"
	"critics/internal/scan"
	"critics/internal/telemetry"
)

// WorkerConfig tunes a worker. The zero value is usable; NewWorker fills
// defaults.
type WorkerConfig struct {
	// Caches is the artifact bundle tasks execute against — the worker-side
	// equivalent of criticd's process-wide shared cache, so repeated tasks
	// for the same app reuse programs/profiles/variants. nil creates one.
	Caches *exp.Caches

	// Workers is each task's exp.Context worker bound, the width of any
	// shard fan-out inside a task; 0 selects GOMAXPROCS.
	Workers int

	// Capacity is how many tasks execute concurrently; excess requests wait
	// (the coordinator's per-attempt timeout governs). /readyz reports 503
	// while all slots are busy. Default GOMAXPROCS.
	Capacity int

	// Registry receives the worker's metric families; nil disables them.
	Registry *telemetry.Registry

	// Logger receives structured task logs; nil discards them.
	Logger *slog.Logger

	// Artifacts is the worker's local content-addressed warm cache for scan
	// inputs (binary images, traces): a recycled worker re-opened on the
	// same directory starts warm. nil creates a temp-dir store.
	Artifacts *artifact.Store

	// ArtifactSource is the base URL scan artifacts missing from the local
	// store are fetched from by digest — normally the coordinator's criticd.
	// Empty means scan tasks must find their artifacts locally.
	ArtifactSource string

	// FailFirstTasks makes the worker answer its first N tasks with an
	// injected 500 — a chaos hook for exercising the coordinator's retry
	// path in smoke tests. 0 (the default) disables it.
	FailFirstTasks int
}

// Worker executes measurement tasks against a shared cache bundle — the
// criticd -worker mode core. Construct with NewWorker, serve Handler, stop
// with Drain.
type Worker struct {
	cfg WorkerConfig
	log *slog.Logger

	slots     chan struct{} // admission semaphore, Capacity wide
	inflight  sync.WaitGroup
	draining  atomic.Bool
	failFirst atomic.Int64 // remaining injected failures (FailFirstTasks)

	tasksDone *telemetry.Counter
	tasksErr  *telemetry.Counter
	busy      *telemetry.Gauge

	fetchClient *http.Client

	// idxMu guards idxCache, a small memo of built image indexes so many
	// scan batches against the same image decode it once.
	idxMu    sync.Mutex
	idxCache map[string]*scan.Index
}

// NewWorker builds a worker.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Caches == nil {
		cfg.Caches = exp.NewCaches()
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = runtime.GOMAXPROCS(0)
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 4}))
	}
	if cfg.Artifacts == nil {
		if dir, err := os.MkdirTemp("", "critics-worker-artifacts-*"); err == nil {
			cfg.Artifacts, _ = artifact.Open(artifact.Config{Dir: dir, Registry: cfg.Registry})
		}
	}
	w := &Worker{
		cfg: cfg, log: log,
		slots:       make(chan struct{}, cfg.Capacity),
		fetchClient: &http.Client{Timeout: 2 * time.Minute},
		idxCache:    map[string]*scan.Index{},
	}
	w.failFirst.Store(int64(cfg.FailFirstTasks))
	if reg := cfg.Registry; reg != nil {
		w.tasksDone = reg.Counter("critics_dist_worker_tasks_executed_total",
			"Tasks executed successfully by this worker.")
		w.tasksErr = reg.Counter("critics_dist_worker_task_errors_total",
			"Tasks that failed on this worker (panic, cancellation, bad request).")
		w.busy = reg.Gauge("critics_dist_worker_busy_slots",
			"Task slots currently executing.")
	}
	return w
}

// Capacity returns the worker's concurrent-task bound.
func (w *Worker) Capacity() int { return w.cfg.Capacity }

// Saturated reports whether every task slot is busy — the /readyz
// queue-not-saturated condition.
func (w *Worker) Saturated() bool { return len(w.slots) >= cap(w.slots) }

// Drain refuses new tasks (POST /dist/v1/task answers 503, /readyz flips to
// 503 so heartbeats stop routing here) and waits for in-flight ones. Safe to
// call more than once.
func (w *Worker) Drain() {
	w.draining.Store(true)
	w.inflight.Wait()
}

// Handler returns the worker's HTTP API: the task endpoint plus the liveness
// and readiness probes the coordinator's heartbeats use.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+TaskPath, w.handleTask)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		writeJSON(rw, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(rw http.ResponseWriter, _ *http.Request) {
		switch {
		case w.draining.Load():
			writeJSON(rw, http.StatusServiceUnavailable, errorBody{Error: "draining"})
		case w.Saturated():
			writeJSON(rw, http.StatusServiceUnavailable, errorBody{Error: "all task slots busy"})
		default:
			writeJSON(rw, http.StatusOK, map[string]string{"status": "ready"})
		}
	})
	return mux
}

// maxTaskBody bounds task request bodies; requests are small configuration
// structs.
const maxTaskBody = 1 << 20

func (w *Worker) handleTask(rw http.ResponseWriter, r *http.Request) {
	if w.draining.Load() {
		writeJSON(rw, http.StatusServiceUnavailable, errorBody{Error: "worker draining"})
		return
	}
	var task Task
	body, err := io.ReadAll(io.LimitReader(r.Body, maxTaskBody))
	if err == nil {
		err = json.Unmarshal(body, &task)
	}
	if err != nil {
		writeJSON(rw, http.StatusBadRequest, errorBody{Error: "malformed task: " + err.Error()})
		return
	}
	if w.cfg.FailFirstTasks > 0 && w.failFirst.Add(-1) >= 0 {
		// Injected transient failure: 500 sends the coordinator to another
		// worker via its retry path.
		if w.tasksErr != nil {
			w.tasksErr.Inc()
		}
		w.log.Warn("injecting task failure", "task", task.ID)
		writeJSON(rw, http.StatusInternalServerError, errorBody{Error: "injected failure (fail-first-tasks)"})
		return
	}

	// Admission: wait for a slot or for the dispatcher to give up.
	select {
	case w.slots <- struct{}{}:
	case <-r.Context().Done():
		return
	}
	w.inflight.Add(1)
	if w.busy != nil {
		w.busy.Add(1)
	}
	defer func() {
		if w.busy != nil {
			w.busy.Add(-1)
		}
		w.inflight.Done()
		<-w.slots
	}()

	// Trace propagation: when the coordinator sent trace headers, record the
	// task's compute (and its memo builds, via the context) on a fresh trace
	// whose spans ride back in the result for the coordinator to merge.
	ctx := r.Context()
	var wt *obs.Trace
	if traceID := r.Header.Get(obs.TraceHeader); traceID != "" {
		wt = obs.NewTrace(traceID)
		ctx = obs.ContextWith(ctx, wt, "c")
	}

	start := time.Now()
	var result TaskResult
	if task.Scan != nil {
		result.Scan, err = w.executeScan(ctx, *task.Scan)
	} else {
		var m *exp.Measurement
		m, err = w.execute(ctx, task)
		if err == nil {
			result = resultOf(m, nil)
		}
	}
	if err != nil {
		if w.tasksErr != nil {
			w.tasksErr.Inc()
		}
		code := http.StatusInternalServerError
		if r.Context().Err() == nil && errors.Is(err, errBadTask) {
			// The task itself is unrunnable — retrying it on another worker
			// would fail identically, so answer with a permanent status.
			code = http.StatusUnprocessableEntity
		}
		w.log.Warn("task failed", "task", task.ID, "what", task.label(), "err", err)
		writeJSON(rw, code, errorBody{Error: err.Error()})
		return
	}
	if w.tasksDone != nil {
		w.tasksDone.Inc()
	}
	w.log.Info("task done", "task", task.ID, "what", task.label(),
		"seconds", time.Since(start).Seconds())
	if wt != nil {
		wt.Add(obs.Span{
			ID: "c", Name: "remote-compute",
			StartUS: 0, DurUS: wt.Now(),
			Attrs: []obs.Attr{obs.A("what", task.label())},
		})
		result.Spans, _ = wt.Snapshot()
	}
	writeJSON(rw, http.StatusOK, result)
}

// errBadTask marks a task the pipeline rejected (e.g. an unknown variant
// kind) — permanent, not worker-specific.
var errBadTask = fmt.Errorf("task rejected by the pipeline")

// execute runs one task with panic isolation: a panicking build fails the
// task, not the worker.
func (w *Worker) execute(ctx context.Context, task Task) (m *exp.Measurement, err error) {
	defer func() {
		if p := recover(); p != nil {
			m, err = nil, fmt.Errorf("%w: %v", errBadTask, p)
		}
	}()
	return exp.ExecuteMeasure(ctx, task.Req, w.cfg.Caches, w.cfg.Workers)
}

// executeScan scores one scan batch. Both inputs arrive by digest: whatever
// the local artifact store is missing is fetched from the coordinator first
// (ensureArtifact), so the store doubles as a warm cache across batches and
// worker restarts. Image decode is memoized per digest — a scan fanned out
// over N batches builds its index here once.
func (w *Worker) executeScan(ctx context.Context, st ScanTask) ([]scan.ChunkResult, error) {
	if w.cfg.Artifacts == nil {
		return nil, fmt.Errorf("%w: worker has no artifact store", errBadTask)
	}
	if err := w.ensureArtifact(ctx, st.ImageDigest); err != nil {
		return nil, err
	}
	if err := w.ensureArtifact(ctx, st.TraceDigest); err != nil {
		return nil, err
	}
	idx, err := w.imageIndex(st.ImageDigest)
	if err != nil {
		return nil, err
	}

	rc, _, err := w.cfg.Artifacts.Open(st.TraceDigest)
	if err != nil {
		return nil, fmt.Errorf("opening trace artifact: %w", err)
	}
	defer rc.Close()
	results, err := scan.ScoreSelected(idx, rc, st.Chunks, st.Opt)
	if err != nil {
		// A malformed trace fails identically on every worker.
		return nil, fmt.Errorf("%w: %v", errBadTask, err)
	}
	return results, nil
}

// ensureArtifact makes digest present in the local store, fetching it from
// ArtifactSource when missing. Fetch failures are transient (the coordinator
// retries elsewhere or later); a missing source with a missing blob is
// permanent for this fleet configuration.
func (w *Worker) ensureArtifact(ctx context.Context, digest string) error {
	if err := artifact.Validate(digest); err != nil {
		return fmt.Errorf("%w: %v", errBadTask, err)
	}
	if w.cfg.Artifacts.Has(digest) {
		return nil
	}
	if w.cfg.ArtifactSource == "" {
		return fmt.Errorf("%w: artifact %s not in local store and no artifact source configured", errBadTask, digest)
	}
	url := w.cfg.ArtifactSource + "/v1/artifacts/" + digest
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := w.fetchClient.Do(req)
	if err != nil {
		return fmt.Errorf("fetching artifact %s: %w", digest, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetching artifact %s: %s answered %s", digest, url, resp.Status)
	}
	// PutChunk verifies the digest on finalize, so a corrupted transfer is
	// rejected rather than cached.
	if _, _, err := w.cfg.Artifacts.PutChunk(digest, 0, resp.Body, true); err != nil {
		return fmt.Errorf("caching artifact %s: %w", digest, err)
	}
	return nil
}

// imageIndex returns the memoized scan index for an image digest, building
// it from the stored blob on first use.
func (w *Worker) imageIndex(digest string) (*scan.Index, error) {
	w.idxMu.Lock()
	defer w.idxMu.Unlock()
	if idx, ok := w.idxCache[digest]; ok {
		return idx, nil
	}
	rc, _, err := w.cfg.Artifacts.Open(digest)
	if err != nil {
		return nil, fmt.Errorf("opening image artifact: %w", err)
	}
	defer rc.Close()
	idx, err := scan.BuildIndex(rc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadTask, err)
	}
	// Bound the memo: scans cycle through few images; keep it from growing
	// without bound on a long-lived worker.
	if len(w.idxCache) >= 8 {
		for k := range w.idxCache {
			delete(w.idxCache, k)
			break
		}
	}
	w.idxCache[digest] = idx
	return idx, nil
}

// Register announces a worker to the coordinator at coordURL, advertising
// advertiseURL as its task endpoint base, retrying (500ms cadence) until the
// registration succeeds or ctx is done. client == nil uses a default.
func Register(ctx context.Context, client *http.Client, coordURL, advertiseURL string, capacity int) error {
	return postRegistration(ctx, client, coordURL+RegisterPath, advertiseURL, capacity, true)
}

// Deregister removes the worker from the coordinator's fleet — the polite
// half of a graceful drain (heartbeats would notice eventually anyway).
// One-shot: a dead coordinator makes this a no-op error.
func Deregister(ctx context.Context, client *http.Client, coordURL, advertiseURL string) error {
	return postRegistration(ctx, client, coordURL+DeregisterPath, advertiseURL, 0, false)
}

func postRegistration(ctx context.Context, client *http.Client, url, advertiseURL string, capacity int, retry bool) error {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	body, err := json.Marshal(registerRequest{URL: advertiseURL, Capacity: capacity})
	if err != nil {
		return err
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode/100 == 2 {
				return nil
			}
			err = fmt.Errorf("dist: %s answered %s", url, resp.Status)
		}
		if !retry {
			return err
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("dist: registering with %s: %w (last error: %v)", url, ctx.Err(), err)
		case <-time.After(500 * time.Millisecond):
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
