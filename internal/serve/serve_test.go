package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sinrcast/internal/jobs"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func submitJob(t *testing.T, ts *httptest.Server, req JobRequest) string {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var out struct{ ID string }
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID == "" {
		t.Fatalf("submit returned no id: %s", body)
	}
	return out.ID
}

func fetchResult(t *testing.T, ts *httptest.Server, id, format string) (int, string) {
	t.Helper()
	resp, body := get(t, fmt.Sprintf("%s/v1/jobs/%s/result?format=%s&wait=1", ts.URL, id, format))
	return resp.StatusCode, string(body)
}

var quickRun = JobRequest{Scenario: "uniform:n=32", Protocol: "decay", Seed: 7, Trials: 2}

// TestWarmColdByteIdentical is the cache-correctness gate (run by name
// in CI): the result table of a run job must be byte-identical whether
// the engine came from a cold build, a warm cache clone, or a server
// with the cache disabled — in every sink format.
func TestWarmColdByteIdentical(t *testing.T) {
	_, cached := testServer(t, Config{})
	_, uncached := testServer(t, Config{CacheBytes: -1})

	for _, format := range []string{"text", "csv", "json"} {
		var outputs []string
		// cold (first submit), warm (second, cache hit), uncached.
		for i, ts := range []*httptest.Server{cached, cached, uncached} {
			id := submitJob(t, ts, quickRun)
			code, body := fetchResult(t, ts, id, format)
			if code != http.StatusOK {
				t.Fatalf("%s result %d: status %d, body %s", format, i, code, body)
			}
			outputs = append(outputs, body)
		}
		if outputs[0] != outputs[1] {
			t.Fatalf("%s: cold and warm results differ:\ncold: %q\nwarm: %q", format, outputs[0], outputs[1])
		}
		if outputs[0] != outputs[2] {
			t.Fatalf("%s: cached and uncached results differ:\ncached: %q\nuncached: %q", format, outputs[0], outputs[2])
		}
	}
}

// TestCacheHitCounted pins that the second identical submission is a
// warm hit, observable through /v1/cache.
func TestCacheHitCounted(t *testing.T) {
	s, ts := testServer(t, Config{})
	for i := 0; i < 2; i++ {
		id := submitJob(t, ts, quickRun)
		if code, body := fetchResult(t, ts, id, "text"); code != http.StatusOK {
			t.Fatalf("result %d: %d %s", i, code, body)
		}
	}
	cs := s.Cache().Stats()
	if cs.Misses != 1 || cs.Hits != 1 {
		t.Fatalf("cache stats after two identical jobs: %+v (want 1 miss, 1 hit)", cs)
	}
}

// TestBackpressure429 pins the admission contract on the wire: a full
// queue answers 429 with a Retry-After header, and the daemon recovers
// once the queue drains.
func TestBackpressure429(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	s, ts := testServer(t, Config{Jobs: jobs.Config{Workers: 1, QueueDepth: 1}})
	s.runHook = func(id string) { <-gate }
	defer once.Do(func() { close(gate) })

	running := submitJob(t, ts, quickRun) // occupies the worker
	queued := submitJob(t, ts, quickRun)  // fills the queue
	resp, body := postJSON(t, ts.URL+"/v1/jobs", quickRun)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, body %s (want 429)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	once.Do(func() { close(gate) })
	for _, id := range []string{running, queued} {
		if code, out := fetchResult(t, ts, id, "text"); code != http.StatusOK {
			t.Fatalf("job %s after drain: %d %s", id, code, out)
		}
	}
	// Queue drained: submissions are accepted again.
	submitJob(t, ts, quickRun)
}

// TestCancelQueuedJob cancels a job stuck behind a busy worker and
// observes the canceled state through the status endpoint.
func TestCancelQueuedJob(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	s, ts := testServer(t, Config{Jobs: jobs.Config{Workers: 1, QueueDepth: 4}})
	s.runHook = func(id string) { <-gate }
	defer once.Do(func() { close(gate) })

	submitJob(t, ts, quickRun) // occupies the worker
	queued := submitJob(t, ts, quickRun)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	h, ok := s.mgr.Get(queued)
	if !ok {
		t.Fatal("job lost")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	h.Wait(ctx)
	_, body := get(t, ts.URL+"/v1/jobs/"+queued)
	if !strings.Contains(string(body), `"state":"canceled"`) {
		t.Fatalf("status after cancel: %s", body)
	}
	if code, out := fetchResult(t, ts, queued, "text"); code != http.StatusUnprocessableEntity {
		t.Fatalf("result of canceled job: %d %s (want 422)", code, out)
	}
}

// TestStreamNDJSON pins the event stream: a finished job replays its
// full history — queued/running states, the cache event, the table,
// and the terminal state — one JSON object per line, and the stream
// terminates.
func TestStreamNDJSON(t *testing.T) {
	_, ts := testServer(t, Config{ProgressEvery: 1})
	id := submitJob(t, ts, quickRun)
	if code, body := fetchResult(t, ts, id, "text"); code != http.StatusOK {
		t.Fatalf("result: %d %s", code, body)
	}
	resp, body := get(t, fmt.Sprintf("%s/v1/jobs/%s/stream", ts.URL, id))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var types []string
	for i, line := range lines {
		var e map[string]any
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d is not JSON: %q: %v", i, line, err)
		}
		types = append(types, e["type"].(string))
	}
	joined := strings.Join(types, ",")
	for _, want := range []string{"state", "cache", "progress", "table"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("stream missing %q events; got types %v", want, types)
		}
	}
	var last map[string]any
	json.Unmarshal([]byte(lines[len(lines)-1]), &last)
	if last["type"] != "state" || last["state"] != "done" {
		t.Fatalf("stream does not end with the terminal state: %v", last)
	}
}

// TestStreamFollowsLiveJob subscribes before the job runs and sees the
// stream complete — the blocking path through eventLog.next.
func TestStreamFollowsLiveJob(t *testing.T) {
	gate := make(chan struct{})
	s, ts := testServer(t, Config{})
	s.runHook = func(id string) { <-gate }

	id := submitJob(t, ts, quickRun)
	done := make(chan string, 1)
	go func() {
		_, body := get(t, fmt.Sprintf("%s/v1/jobs/%s/stream", ts.URL, id))
		done <- string(body)
	}()
	time.Sleep(50 * time.Millisecond) // let the subscriber attach early
	close(gate)
	select {
	case body := <-done:
		if !strings.Contains(body, `"state":"done"`) {
			t.Fatalf("live stream missing terminal state: %s", body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not terminate")
	}
}

// TestValidationRejects pins the 400 boundary: malformed and
// impossible requests never become jobs.
func TestValidationRejects(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []JobRequest{
		{},                         // neither run nor experiment
		{Scenario: "uniform:n=32"}, // run without protocol
		{Scenario: "nosuch:n=4", Protocol: "decay"},
		{Scenario: "uniform:n=32", Protocol: "nosuch"},
		{Scenario: "uniform:n=32", Protocol: "decay", Engine: "warp"},
		{Scenario: "uniform:n=32", Protocol: "decay", Trials: -1},
		{Experiment: 99},
	}
	for i, req := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d (%+v): status %d, body %s (want 400)", i, req, resp.StatusCode, body)
		}
	}
	// Unknown fields are rejected too — typos must not silently noop.
	resp, _ := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"scenario": "uniform:n=32", "protcol": "decay"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d (want 400)", resp.StatusCode)
	}
}

// TestExperimentJob runs the smallest suite runner end to end and
// checks the result renders in every format.
func TestExperimentJob(t *testing.T) {
	_, ts := testServer(t, Config{})
	id := submitJob(t, ts, JobRequest{
		Experiment: 13, Seed: 2014, Trials: 1,
		Scenario: "uniform:n=32", Protocol: "decay",
	})
	for _, format := range []string{"text", "csv", "json"} {
		code, body := fetchResult(t, ts, id, format)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", format, code, body)
		}
		if !strings.Contains(body, "decay") {
			t.Fatalf("%s result lacks the protocol row: %s", format, body)
		}
	}
}

// TestServerShutdownDrains is the service-level graceful-shutdown
// test: an in-flight job finishes, a queued one fails with the clean
// shutdown error, and new submissions answer 503.
func TestServerShutdownDrains(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Jobs: jobs.Config{Workers: 1, QueueDepth: 4}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.runHook = func(id string) { <-gate }

	running := submitJob(t, ts, quickRun)
	queued := submitJob(t, ts, quickRun)

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	qh, _ := s.mgr.Get(queued)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := qh.Wait(ctx); err == nil || !strings.Contains(err.Error(), "shutting down") {
		t.Fatalf("queued job error %v, want the shutdown error", err)
	}

	resp, _ := postJSON(t, ts.URL+"/v1/jobs", quickRun)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: status %d (want 503)", resp.StatusCode)
	}

	close(gate)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	rh, _ := s.mgr.Get(running)
	if state, err := rh.State(); state != jobs.StateDone || err != nil {
		t.Fatalf("in-flight job after drain: %s %v (want done)", state, err)
	}
}

// TestRPCRoundTrip drives the JSON-RPC transport through submit,
// status, list, cache.stats, cancel, and the error paths.
func TestRPCRoundTrip(t *testing.T) {
	_, ts := testServer(t, Config{})
	call := func(body string) map[string]any {
		t.Helper()
		resp, err := http.Post(ts.URL+"/rpc", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding RPC response: %v", err)
		}
		return out
	}

	sub := call(`{"jsonrpc":"2.0","id":1,"method":"job.submit","params":{"scenario":"uniform:n=32","protocol":"decay","seed":7}}`)
	if sub["error"] != nil {
		t.Fatalf("job.submit error: %v", sub["error"])
	}
	id := sub["result"].(map[string]any)["id"].(string)

	if code, body := fetchResult(t, ts, id, "text"); code != http.StatusOK {
		t.Fatalf("result: %d %s", code, body)
	}
	st := call(fmt.Sprintf(`{"jsonrpc":"2.0","id":2,"method":"job.status","params":{"id":%q}}`, id))
	if got := st["result"].(map[string]any)["state"]; got != "done" {
		t.Fatalf("job.status state %v, want done", got)
	}
	if l := call(`{"jsonrpc":"2.0","id":3,"method":"job.list"}`); len(l["result"].([]any)) != 1 {
		t.Fatalf("job.list: %v", l["result"])
	}
	cs := call(`{"jsonrpc":"2.0","id":4,"method":"cache.stats"}`)
	if cs["result"].(map[string]any)["cache"] == nil {
		t.Fatalf("cache.stats: %v", cs)
	}

	for body, wantCode := range map[string]float64{
		`{"jsonrpc":"2.0","id":5,"method":"job.status","params":{"id":"nope"}}`:    rpcNotFound,
		`{"jsonrpc":"2.0","id":6,"method":"no.such"}`:                              rpcMethodNotFound,
		`{"jsonrpc":"1.0","id":7,"method":"job.list"}`:                             rpcInvalidRequest,
		`{"jsonrpc":"2.0","id":8,"method":"job.submit","params":{"scenario":"x"}}`: rpcInvalidParams,
		`not json`: rpcParseError,
	} {
		out := call(body)
		e, ok := out["error"].(map[string]any)
		if !ok {
			t.Fatalf("request %s: no error (got %v)", body, out)
		}
		if e["code"].(float64) != wantCode {
			t.Fatalf("request %s: code %v, want %v", body, e["code"], wantCode)
		}
	}
}

// TestBodiesAreOneJSONValue pins that both transports take exactly one
// JSON value per body: trailing data after it is a parse error, a
// trailing newline is not, and an RPC batch is an invalid request
// rather than a parse error.
func TestBodiesAreOneJSONValue(t *testing.T) {
	_, ts := testServer(t, Config{})
	const list = `{"jsonrpc":"2.0","method":"job.list","id":1}`
	const run = `{"scenario":"uniform:n=16","protocol":"decay","seed":1}`
	for _, tc := range []struct {
		path, body string
		want       int // RPC error code (0 = a result), or HTTP status
	}{
		{"/rpc", list + ` trailing{`, rpcParseError},
		{"/rpc", list + list, rpcParseError},
		{"/rpc", `[` + list + `]`, rpcInvalidRequest},
		{"/rpc", " \n[", rpcInvalidRequest},
		{"/rpc", list + "\n", 0},
		{"/v1/jobs", run + ` trailing{`, http.StatusBadRequest},
		{"/v1/jobs", run + run, http.StatusBadRequest},
		{"/v1/jobs", `[` + run + `]`, http.StatusBadRequest},
		{"/v1/jobs", run + "\n", http.StatusAccepted},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if tc.path == "/v1/jobs" {
			if resp.StatusCode != tc.want {
				t.Errorf("POST /v1/jobs %q: status %d, want %d: %s", tc.body, resp.StatusCode, tc.want, out)
			}
			continue
		}
		var ans struct {
			Result json.RawMessage `json:"result"`
			Error  *rpcError       `json:"error"`
		}
		if err := json.Unmarshal(out, &ans); err != nil {
			t.Fatalf("POST /rpc %q: answer %q: %v", tc.body, out, err)
		}
		got := 0
		if ans.Error != nil {
			got = ans.Error.Code
		}
		if got != tc.want || (got == 0 && ans.Result == nil) {
			t.Errorf("POST /rpc %q: answer %s, want code %d", tc.body, out, tc.want)
		}
	}
}

// TestHealthz pins the liveness endpoint the CI smoke polls.
func TestHealthz(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "true") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
}

// TestRetentionMatchesManager runs jobs.MaxRetained+extra cheap jobs:
// the serve side keeps exactly what the manager keeps. The oldest
// finished ids answer 404 on status, stream and result, and /v1/jobs
// lists the manager's retained jobs in submission order.
func TestRetentionMatchesManager(t *testing.T) {
	s, ts := testServer(t, Config{Jobs: jobs.Config{Workers: 2, QueueDepth: 64}})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const extra = 40
	var ids []string
	for i := 0; i < jobs.MaxRetained+extra; i++ {
		h, err := s.submit(&quickRun)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, h.ID())
		if err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids[:extra] {
		for _, path := range []string{"", "/stream", "/result"} {
			if resp, body := get(t, ts.URL+"/v1/jobs/"+id+path); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("pruned job %s%s: status %d, want 404: %s", id, path, resp.StatusCode, body)
			}
		}
	}
	newest := ids[len(ids)-1]
	if code, out := fetchResult(t, ts, newest, "text"); code != http.StatusOK {
		t.Fatalf("newest job %s result: status %d: %s", newest, code, out)
	}

	resp, body := get(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	var listed []statusJSON
	if err := json.Unmarshal(body, &listed); err != nil {
		t.Fatal(err)
	}
	retained := s.mgr.Jobs()
	if len(listed) != len(retained) || len(listed) != jobs.MaxRetained {
		t.Fatalf("listed %d jobs, manager retains %d, want both %d", len(listed), len(retained), jobs.MaxRetained)
	}
	for i, st := range listed {
		if st.ID != retained[i].ID() || st.ID != ids[extra+i] {
			t.Fatalf("list[%d] = %s, want %s (manager %s)", i, st.ID, ids[extra+i], retained[i].ID())
		}
	}
}
