package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sinrcast/internal/faultinject"
	"sinrcast/internal/jobs"
	"sinrcast/internal/network"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

// TestCircuitBreakerLifecycle unit-tests the per-key breaker: three
// consecutive build failures open the circuit (fast 422 path), the TTL
// expiry admits one half-open probe, and a successful build resets the
// key.
func TestCircuitBreakerLifecycle(t *testing.T) {
	c := NewCache(1 << 20)
	c.SetBreaker(3, 50*time.Millisecond)
	boom := errors.New("boom")
	failing := func() (*network.Network, error) { return nil, boom }
	builds := 0
	counting := func() (*network.Network, error) { builds++; return nil, boom }

	for i := 0; i < 3; i++ {
		if _, _, _, err := c.Get("k", failing, nil); !errors.Is(err, boom) {
			t.Fatalf("failure %d: err = %v, want build error", i, err)
		}
	}
	// Open: the builder must not run again.
	_, _, _, err := c.Get("k", counting, nil)
	var open *CircuitOpenError
	if !errors.As(err, &open) {
		t.Fatalf("4th get: err = %v, want CircuitOpenError", err)
	}
	if builds != 0 {
		t.Fatal("open circuit still invoked the builder")
	}
	if err := c.Negative("k"); !errors.As(err, &open) {
		t.Fatal("Negative does not report the open circuit")
	}
	if err := c.Negative("other"); err != nil {
		t.Fatalf("unrelated key affected: %v", err)
	}
	st := c.Stats()
	if st.Trips == 0 || st.FastFails < 2 || st.Negative != 1 {
		t.Fatalf("breaker gauges not counted: %+v", st)
	}

	// Past the TTL: one half-open probe runs the builder; its failure
	// re-opens immediately (no second probe until the next TTL).
	time.Sleep(60 * time.Millisecond)
	if _, _, _, err := c.Get("k", counting, nil); !errors.Is(err, boom) {
		t.Fatalf("half-open probe: err = %v, want build error", err)
	}
	if builds != 1 {
		t.Fatalf("half-open probe ran the builder %d times, want 1", builds)
	}
	if _, _, _, err := c.Get("k", counting, nil); !errors.As(err, &open) {
		t.Fatalf("after failed probe: err = %v, want re-opened circuit", err)
	}

	// A successful build closes the breaker for good.
	time.Sleep(60 * time.Millisecond)
	okBuild := func() (*network.Network, error) {
		spec, err := scenario.Parse("uniform:n=8")
		if err != nil {
			return nil, err
		}
		return scenario.Generate(spec, sinr.DefaultParams(), 1)
	}
	eng := func(n *network.Network) (sim.Resolver, error) { return nopResolver{n: n.N()}, nil }
	if _, _, _, err := c.Get("k", okBuild, eng); err != nil {
		t.Fatalf("successful probe failed: %v", err)
	}
	if err := c.Negative("k"); err != nil {
		t.Fatalf("breaker did not reset after success: %v", err)
	}
}

// nopResolver is the minimal sim.Resolver for cache unit tests.
type nopResolver struct{ n int }

func (r nopResolver) Resolve(tx []int) []sinr.Reception { return nil }
func (r nopResolver) N() int                            { return r.n }

// TestSubmitFastFails422WhenCircuitOpen pins the admission-time
// breaker: once a spec's builds trip the circuit, submitting the same
// spec answers 422 without consuming a queue slot, and a different
// spec is unaffected.
func TestSubmitFastFails422WhenCircuitOpen(t *testing.T) {
	s, ts := testServer(t, Config{})
	s.Cache().SetBreaker(1, time.Minute)
	faultinject.Arm(faultinject.CacheBuild, faultinject.Fault{First: 1, Seed: 2})
	defer faultinject.DisarmAll()

	id := submitJob(t, ts, quickRun)
	if state, _ := waitTerminal(t, ts.URL, id); state != "failed" {
		t.Fatalf("poisoned job state %s, want failed", state)
	}

	before := s.mgr.Stats()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", quickRun)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("open-circuit submit: status %d, want 422: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "circuit open") {
		t.Fatalf("422 body does not explain the breaker: %s", body)
	}
	if after := s.mgr.Stats(); after.Submitted != before.Submitted {
		t.Fatal("fast-failed submission consumed a queue slot")
	}

	other := quickRun
	other.Seed = 12345
	okID := submitJob(t, ts, other)
	if code, _ := fetchResult(t, ts, okID, "text"); code != http.StatusOK {
		t.Fatal("unrelated spec rejected while circuit open")
	}
}

// TestRetryAfterTracksDrainRate pins the dynamic backpressure hint: a
// server that has observed completions answers 429 with a Retry-After
// derived from the measured drain rate, still within [1, 60].
func TestRetryAfterTracksDrainRate(t *testing.T) {
	release := make(chan struct{})
	s, ts := testServer(t, Config{Jobs: jobs.Config{QueueDepth: 1, Workers: 1}})
	// Prime the drain-rate window: complete a few instant jobs first,
	// one at a time — with one worker and one queue slot, a third
	// submission racing two unfinished jobs would be refused.
	for i := 0; i < 3; i++ {
		waitTerminal(t, ts.URL, submitJob(t, ts, quickRun))
	}
	if rate := s.mgr.DrainRate(); rate <= 0 {
		t.Fatalf("drain rate not observed: %v", rate)
	}

	// Now wedge the single worker and fill the queue.
	s.runHook = func(id string) { <-release }
	defer close(release)
	submitJob(t, ts, quickRun) // occupies the worker
	submitJob(t, ts, quickRun) // occupies the queue slot
	resp, body := postJSON(t, ts.URL+"/v1/jobs", quickRun)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d: %s", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", ra, err)
	}
	if secs < 1 || secs > 60 {
		t.Fatalf("Retry-After %d outside [1, 60]", secs)
	}
	want := int(s.mgr.RetryAfter() / time.Second)
	if secs < want-1 || secs > want+1 {
		t.Fatalf("Retry-After %d does not track RetryAfter() = %d", secs, want)
	}
}

// errAfterWriter fails every Write after the first n — the
// disconnected-client stand-in for the stream handler.
type errAfterWriter struct {
	mu     sync.Mutex
	n      int
	writes int
	header http.Header
}

func (w *errAfterWriter) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}
func (w *errAfterWriter) WriteHeader(int) {}
func (w *errAfterWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes++
	if w.writes > w.n {
		return 0, fmt.Errorf("write tcp: broken pipe")
	}
	return len(p), nil
}

// TestStreamWriteErrorUnsubscribes pins that a stream whose client
// write fails mid-stream returns instead of spinning on the event log.
func TestStreamWriteErrorUnsubscribes(t *testing.T) {
	s, _ := testServer(t, Config{})
	release := make(chan struct{})
	s.runHook = func(id string) { <-release }
	h, err := s.submit(&quickRun)
	if err != nil {
		t.Fatal(err)
	}
	// Feed the log forever in the background until the handler exits.
	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				h.Value().log.append(event{Type: "progress", Job: h.ID(), Round: intp(i)})
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	defer close(stop)
	defer close(release)

	w := &errAfterWriter{n: 2}
	req := httptest.NewRequest("GET", "/v1/jobs/"+h.ID()+"/stream", nil)
	req.SetPathValue("id", h.ID())
	done := make(chan struct{})
	go func() {
		s.handleStream(w, req)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handleStream did not return after client write errors")
	}
}

// TestStreamClientDisconnectUnsubscribes pins the context path: a
// client that goes away (context cancellation) releases the stream
// promptly even while events keep flowing and writes keep succeeding.
func TestStreamClientDisconnectUnsubscribes(t *testing.T) {
	s, _ := testServer(t, Config{})
	release := make(chan struct{})
	s.runHook = func(id string) { <-release }
	h, err := s.submit(&quickRun)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				h.Value().log.append(event{Type: "progress", Job: h.ID(), Round: intp(i)})
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	defer close(stop)
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	w := &errAfterWriter{n: 1 << 30} // writes always succeed
	req := httptest.NewRequest("GET", "/v1/jobs/"+h.ID()+"/stream", nil).WithContext(ctx)
	req.SetPathValue("id", h.ID())
	done := make(chan struct{})
	go func() {
		s.handleStream(w, req)
		close(done)
	}()
	time.Sleep(5 * time.Millisecond) // let it stream a little
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handleStream did not return after the client disconnected")
	}
}

// TestStreamDisconnectOverTCP closes a real HTTP connection mid-stream
// and asserts the server-side handler goroutine exits (observed via
// the per-test server's Close, which blocks on outstanding handlers).
func TestStreamDisconnectOverTCP(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	release := make(chan struct{})
	s.runHook = func(id string) { <-release }
	h, err := s.submit(&JobRequest{Scenario: "uniform:n=32", Protocol: "decay", Seed: 3, Trials: 1, ProgressEvery: 1})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + h.ID() + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("first stream read: %v", err)
	}
	resp.Body.Close() // mid-stream disconnect
	close(release)

	finished := make(chan struct{})
	go func() {
		ts.Close() // blocks until the stream handler returns
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(15 * time.Second):
		t.Fatal("stream handler still running after client disconnect")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}

// TestOpenReservesJournaledIDs pins the replay id guard end to end: a
// fresh submission racing background replay must receive an id beyond
// every journaled id, so it can never collide with a Resubmit and hand
// clients polling a journaled id a different job.
func TestOpenReservesJournaledIDs(t *testing.T) {
	path := tempJournal(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(journalRecord{Op: "accept", ID: "j7", Req: &quickRun})
	j.Append(journalRecord{Op: "done", ID: "j7", State: "done"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s, ts := journalServer(t, path, Config{})
	// Deliberately no waitReplay first: the reservation must hold even
	// while replay is still running in the background.
	id := submitJob(t, ts, quickRun)
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "j"), 10, 64)
	if err != nil || n <= 7 {
		t.Fatalf("fresh id %q does not clear the journaled ids (want > j7)", id)
	}
	waitReplay(t, s)
}

// TestReplayOverflowFailsVisibly pins the write-ahead contract under
// queue overflow: when the journal holds more in-flight jobs than the
// new incarnation's queue admits, the overflow is recorded as a failed
// terminal state — queryable under the original id, never a 404 — and
// the loss is durable across a further restart.
func TestReplayOverflowFailsVisibly(t *testing.T) {
	path := tempJournal(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		req := quickRun
		req.Seed = uint64(1000 + i)
		j.Append(journalRecord{Op: "accept", ID: fmt.Sprintf("j%d", i), Req: &req})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Stall every worker dequeue so replay outruns the drain and the
	// 1-deep queue genuinely overflows.
	faultinject.Arm(faultinject.WorkerStall, faultinject.Fault{Every: 1, Seed: 1, Stall: 100 * time.Millisecond})
	defer faultinject.DisarmAll()
	s, ts := journalServer(t, path, Config{Jobs: jobs.Config{QueueDepth: 1, Workers: 1}, RewarmHot: -1})
	waitReplay(t, s)
	faultinject.DisarmAll()

	overflowed := 0
	for i := 1; i <= 8; i++ {
		id := fmt.Sprintf("j%d", i)
		state, jerr := waitTerminal(t, ts.URL, id) // 404 fails here
		if state == string(jobs.StateFailed) {
			if !strings.Contains(jerr, "replay:") {
				t.Fatalf("job %s failed outside replay: %q", id, jerr)
			}
			overflowed++
		}
	}
	if overflowed == 0 {
		t.Fatal("queue never overflowed; the test exercised nothing")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The loss is journaled: a further restart sees every job terminal
	// and replays nothing.
	s2, _ := journalServer(t, path, Config{RewarmHot: -1})
	waitReplay(t, s2)
	if n := s2.mgr.Stats().Submitted; n != 0 {
		t.Fatalf("second restart re-queued %d jobs; overflow loss not durable", n)
	}
}

// TestShutdownDuringReplayLeavesJobsReplayable pins the drain/replay
// interaction: a shutdown that wins the race against replay must not
// fail durably accepted jobs — their accept records stay
// un-terminated so the next incarnation replays them.
func TestShutdownDuringReplayLeavesJobsReplayable(t *testing.T) {
	path := tempJournal(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(journalRecord{Op: "accept", ID: "j1", Req: &quickRun})
	j.Append(journalRecord{Op: "accept", ID: "j2", Req: &quickRun})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := ReadJournalRecords(path)
	if err != nil {
		t.Fatal(err)
	}

	// Assemble the mid-replay daemon state by hand: draining already
	// set (Shutdown won the race), replay about to run.
	s := New(Config{JournalPath: path, RewarmHot: -1})
	if s.journal, err = OpenJournal(path); err != nil {
		t.Fatal(err)
	}
	s.ready.Store(false)
	s.replayDone = make(chan struct{})
	s.draining.Store(true)
	s.replay(recs, 0)
	if n := s.mgr.Stats().Submitted; n != 0 {
		t.Fatalf("draining replay admitted %d jobs", n)
	}
	if _, err := s.submit(&quickRun); !errors.Is(err, jobs.ErrShutdown) {
		t.Fatalf("submit while draining: err = %v, want ErrShutdown", err)
	}
	if err := s.journal.Close(); err != nil {
		t.Fatal(err)
	}
	after, _, err := ReadJournalRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 2 {
		t.Fatalf("journal grew to %d records; draining replay must append nothing", len(after))
	}
	for _, rec := range after {
		if rec.Op != "accept" {
			t.Fatalf("accept record terminated during draining replay: %+v", rec)
		}
	}
}
