package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"critics"
)

// start spins up a server over httptest and returns it with a client and a
// cleanup that drains it.
func start(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		hs.Close()
	})
	return s, NewClient(hs.URL)
}

// stubConfig returns a config whose execute is replaced by fn — no critics
// pipeline, so queue/lifecycle tests stay fast and deterministic.
func stubConfig(fn func(ctx context.Context, req SubmitRequest) ([]byte, error)) Config {
	cfg := Config{QueueSize: 8, Workers: 2}
	cfg.execute = fn
	return cfg
}

// echoStub succeeds immediately with a marshaled Result echoing the request.
func echoStub(_ context.Context, req SubmitRequest) ([]byte, error) {
	return json.Marshal(Result{Kind: req.Kind, App: req.App, Text: "done " + req.App})
}

// TestLifecycleIdentity is the end-to-end acceptance check: a served
// optimize job returns a report identical to the in-process
// critics.OptimizeApp for the same options — the daemon is a transport, not
// a different pipeline.
func TestLifecycleIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline")
	}
	_, c := start(t, Config{QueueSize: 4, Workers: 1, JobWorkers: 2})
	ctx := context.Background()

	// "Acrobat" exercises case-insensitive catalog resolution.
	st, err := c.Submit(ctx, SubmitRequest{App: "Acrobat", Quick: true, Workers: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.Kind != KindOptimize || st.App != "acrobat" {
		t.Fatalf("submit inferred kind=%s app=%s", st.Kind, st.App)
	}
	st, err = c.Wait(ctx, st.ID, time.Minute)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != StateSucceeded {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	raw, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result decode: %v", err)
	}

	want, err := critics.OptimizeApp("acrobat", critics.WithQuickScale(), critics.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Text != want.String() {
		t.Errorf("served report differs from critics.OptimizeApp:\n--- served ---\n%s\n--- direct ---\n%s", res.Text, want)
	}
}

// TestSharedCaches proves the daemon-wide memo cache: the second identical
// job must be served from cache (hits observed, and the artifacts are not
// rebuilt).
func TestSharedCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline")
	}
	s, c := start(t, Config{QueueSize: 4, Workers: 1, JobWorkers: 2})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		st, err := c.Submit(ctx, SubmitRequest{App: "maps", Quick: true, Workers: 2})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if st, err = c.Wait(ctx, st.ID, time.Minute); err != nil || st.State != StateSucceeded {
			t.Fatalf("job %d ended %s err=%v", i, st.State, err)
		}
	}
	stats := s.CacheStats()
	if stats.Measurements.Hits == 0 || stats.Profiles.Hits == 0 {
		t.Errorf("expected cache hits on the second identical job, got %+v", stats)
	}
}

// TestAPIErrors covers the 4xx surface: unknown job ids, malformed bodies,
// bad names, premature result fetches and wrong methods.
func TestAPIErrors(t *testing.T) {
	_, c := start(t, stubConfig(echoStub))
	ctx := context.Background()
	base := c.base

	post := func(body string) *http.Response {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	codes := []struct {
		resp *http.Response
		want int
		name string
	}{
		{post(`{not json`), http.StatusBadRequest, "malformed body"},
		{post(`{}`), http.StatusBadRequest, "missing kind"},
		{post(`{"app":"nonexistent"}`), http.StatusBadRequest, "unknown app"},
		{post(`{"experiment":"fig99"}`), http.StatusBadRequest, "unknown experiment"},
		{post(`{"kind":"destroy","app":"acrobat"}`), http.StatusBadRequest, "unknown kind"},
		{post(`{"app":"acrobat","timeout_ms":-5}`), http.StatusBadRequest, "negative timeout"},
	}
	for _, tc := range codes {
		var er ErrorResponse
		if err := json.NewDecoder(tc.resp.Body).Decode(&er); err != nil || er.Error == "" {
			t.Errorf("%s: error body missing (%v)", tc.name, err)
		}
		tc.resp.Body.Close()
		if tc.resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, tc.resp.StatusCode, tc.want)
		}
	}

	// The unknown-app rejection must teach the caller the valid names.
	resp := post(`{"app":"nonexistent"}`)
	var er ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if !strings.Contains(er.Error, "acrobat") {
		t.Errorf("unknown-app error does not list valid names: %q", er.Error)
	}

	if _, err := c.Status(ctx, "j999999"); err == nil {
		t.Error("status of unknown job succeeded")
	} else if apiErr, ok := err.(*APIError); !ok || apiErr.Code != http.StatusNotFound {
		t.Errorf("status of unknown job: %v, want 404", err)
	}
	if _, err := c.Result(ctx, "j999999"); err == nil {
		t.Error("result of unknown job succeeded")
	}

	// Result of a non-succeeded job is 409, not 200/404.
	st, err := c.Submit(ctx, SubmitRequest{App: "acrobat", Kind: KindOptimize})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("result after success: %d", resp2.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodPut, base+"/v1/jobs", nil)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/jobs: %d, want 405", resp3.StatusCode)
	}
}

// TestIdempotency proves safe client retries: a resubmit bearing the same
// idempotency key returns the same job; a different key enqueues a new one.
func TestIdempotency(t *testing.T) {
	_, c := start(t, stubConfig(echoStub))
	ctx := context.Background()

	a1, err := c.Submit(ctx, SubmitRequest{App: "acrobat", IdempotencyKey: "retry-1"})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.Submit(ctx, SubmitRequest{App: "acrobat", IdempotencyKey: "retry-1"})
	if err != nil {
		t.Fatal(err)
	}
	if a1.ID != a2.ID {
		t.Errorf("same key produced different jobs: %s vs %s", a1.ID, a2.ID)
	}
	b, err := c.Submit(ctx, SubmitRequest{App: "acrobat", IdempotencyKey: "retry-2"})
	if err != nil {
		t.Fatal(err)
	}
	if b.ID == a1.ID {
		t.Error("different key reused the job")
	}
}

// TestPanicIsolation: a panicking workload fails its own job with the panic
// message and the daemon keeps serving the next one.
func TestPanicIsolation(t *testing.T) {
	cfg := stubConfig(func(_ context.Context, req SubmitRequest) ([]byte, error) {
		if req.App == "acrobat" {
			panic("synthetic workload crash")
		}
		return echoStub(nil, req)
	})
	s, c := start(t, cfg)
	ctx := context.Background()

	st, err := c.Submit(ctx, SubmitRequest{App: "acrobat"})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "synthetic workload crash") {
		t.Errorf("panicking job: state=%s err=%q", st.State, st.Error)
	}

	st, err = c.Submit(ctx, SubmitRequest{App: "maps"})
	if err != nil {
		t.Fatalf("daemon did not survive the panic: %v", err)
	}
	if st, err = c.Wait(ctx, st.ID, 10*time.Second); err != nil || st.State != StateSucceeded {
		t.Errorf("job after panic: state=%s err=%v", st.State, err)
	}

	var buf strings.Builder
	if err := s.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `critics_server_jobs_total{outcome="panic"} 1`) {
		t.Error("panic outcome not counted")
	}
}

// TestJobTimeout: a job exceeding its deadline fails with a retryable
// status.
func TestJobTimeout(t *testing.T) {
	cfg := stubConfig(func(ctx context.Context, _ SubmitRequest) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	_, c := start(t, cfg)
	ctx := context.Background()

	st, err := c.Submit(ctx, SubmitRequest{App: "acrobat", TimeoutMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !st.Retryable {
		t.Errorf("timed-out job: state=%s retryable=%v err=%q", st.State, st.Retryable, st.Error)
	}
}

// TestCancel covers both cancellation paths: a running job (context
// propagation) and a queued job (never starts).
func TestCancel(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	cfg := Config{QueueSize: 8, Workers: 1}
	cfg.execute = func(ctx context.Context, req SubmitRequest) ([]byte, error) {
		started <- req.App
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return echoStub(ctx, req)
		}
	}
	_, c := start(t, cfg)
	defer close(release)
	ctx := context.Background()

	running, err := c.Submit(ctx, SubmitRequest{App: "acrobat"})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the single worker now blocks in the job
	queued, err := c.Submit(ctx, SubmitRequest{App: "maps"})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job first: it must go terminal without running.
	if _, err := c.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled || st.StartedAt != nil {
		t.Errorf("queued cancel: state=%s started=%v", st.State, st.StartedAt)
	}

	// Cancel the running one: the context unblocks the stub.
	if _, err := c.Cancel(ctx, running.ID); err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, running.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Errorf("running cancel: state=%s err=%q", st.State, st.Error)
	}

	select {
	case app := <-started:
		t.Errorf("canceled queued job still ran: %s", app)
	default:
	}
}

// TestCatalogEndpoints: /v1/apps and /v1/experiments serve the catalogs the
// submit validator enforces.
func TestCatalogEndpoints(t *testing.T) {
	_, c := start(t, stubConfig(echoStub))
	ctx := context.Background()

	suites, err := c.Apps(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, names := range suites {
		for _, n := range names {
			if n == "acrobat" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("acrobat missing from /v1/apps: %v", suites)
	}
	ids, err := c.Experiments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Error("/v1/experiments empty")
	}
}

// TestServerMetricsExposition pins the server's family names on a live
// scrape (the exposition format itself is pinned by the telemetry golden
// test).
func TestServerMetricsExposition(t *testing.T) {
	_, c := start(t, stubConfig(echoStub))
	ctx := context.Background()
	st, err := c.Submit(ctx, SubmitRequest{App: "acrobat"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	for _, family := range []string{
		"critics_server_jobs_total",
		"critics_server_queue_depth",
		"critics_server_inflight_jobs",
		"critics_server_http_request_seconds",
		"critics_server_http_requests_total",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
}

// TestExperimentDeadlineMidRun: an experiment job whose deadline expires
// while its shards run must fail with the deadline error and leave the
// daemon serving. A shard that consumes an artifact discarded by the
// cancellation panics on a pool worker goroutine; the pool has to carry
// that panic back to the job's goroutine, where the cancellation mapping
// turns it into the context's error, instead of crashing the process.
func TestExperimentDeadlineMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline")
	}
	_, c := start(t, Config{QueueSize: 8, Workers: 1})
	ctx := context.Background()
	for _, ms := range []int64{1, 5, 10, 20, 40, 80} {
		st := submitAndWait(t, c, SubmitRequest{
			Kind: KindExperiment, Experiment: "fig10a", Quick: true, TimeoutMS: ms, Workers: 4,
		})
		if st.State != StateFailed || !strings.Contains(st.Error, context.DeadlineExceeded.Error()) {
			t.Errorf("timeout_ms=%d: job ended %s with %q, want failed with the deadline error", ms, st.State, st.Error)
		}
	}
	if _, err := c.Apps(ctx); err != nil {
		t.Fatalf("daemon not serving after the deadline sweep: %v", err)
	}
}
