package server

import (
	"context"
	"sync"
	"time"

	"critics/internal/obs"
)

// job is one unit of queued/executing work. State transitions go through the
// mutex-guarded methods so the HTTP handlers, the worker loop and the
// shutdown drain can race freely:
//
//	queued → running → succeeded | failed
//	queued → canceled            (cancel before a worker picks it up)
//	queued → failed(retryable)   (drained at shutdown)
//	running → canceled           (cancel propagated through the job context)
type job struct {
	id  string
	req SubmitRequest

	// trace is the job's span store, set at admission before the job enters
	// the queue (the channel send orders it before any worker access) and
	// never reassigned; it needs no lock.
	trace *obs.Trace

	mu       sync.Mutex
	state    JobState
	errMsg   string
	retry    bool
	result   []byte // marshaled Result, set on success
	created  time.Time
	started  time.Time
	finished time.Time

	// cancel aborts the job's run context. Set when the job starts; calling
	// it is how DELETE reaches a running job. requested remembers a cancel
	// that arrived while the job was still queued-to-running racing.
	cancel    context.CancelFunc
	requested bool
}

func newJob(id string, req SubmitRequest) *job {
	return &job{id: id, req: req, state: StateQueued, created: time.Now()}
}

// Status snapshots the job for the wire.
func (j *job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.id,
		Kind:       j.req.Kind,
		App:        j.req.App,
		Experiment: j.req.Experiment,
		State:      j.state,
		Error:      j.errMsg,
		Retryable:  j.retry,
		CreatedAt:  j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// tryStart moves queued → running and installs the cancel func. It fails
// when the job was canceled (or otherwise left the queued state) first; the
// worker then skips it.
func (j *job) tryStart(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued || j.requested {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// requestCancel asks the job to stop: a queued job is canceled outright, a
// running one has its context cancelled (the worker records the terminal
// state). Terminal jobs are left untouched.
func (j *job) requestCancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.requested = true
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.errMsg = "canceled before execution"
		j.finished = time.Now()
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
}

// terminal is a started job's terminal state: decided by settle, made
// visible to pollers by publish.
type terminal struct {
	state    JobState
	errMsg   string
	retry    bool
	result   []byte // marshaled Result, set on success
	finished time.Time
}

// settle decides a started job's terminal state without publishing it, so
// the worker records the outcome before any poller sees it. A job whose
// cancellation was requested lands in canceled regardless of how execution
// returned; a cancel arriving after settle finds the outcome decided.
func (j *job) settle(result []byte, errMsg string, retryable bool) terminal {
	j.mu.Lock()
	defer j.mu.Unlock()
	t := terminal{finished: time.Now()}
	switch {
	case j.requested:
		t.state = StateCanceled
		if errMsg == "" {
			errMsg = "canceled"
		}
		t.errMsg = errMsg
	case errMsg != "":
		t.state = StateFailed
		t.errMsg = errMsg
		t.retry = retryable
	default:
		t.state = StateSucceeded
		t.result = result
	}
	return t
}

// publish makes a settled terminal state visible.
func (j *job) publish(t terminal) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state, j.errMsg, j.retry, j.result, j.finished = t.state, t.errMsg, t.retry, t.result, t.finished
}

// failQueued moves a still-queued job to failed-retryable (the shutdown
// drain). Returns false if the job had already left the queue.
func (j *job) failQueued(msg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateFailed
	j.errMsg = msg
	j.retry = true
	j.finished = time.Now()
	return true
}

// Result returns the marshaled result document of a succeeded job.
func (j *job) Result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == StateSucceeded
}
