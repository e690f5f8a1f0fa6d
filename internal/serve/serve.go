// Package serve is the sinrcastd control plane: simulation as a
// service over the same registries the CLIs use. Clients submit a
// scenario spec, a protocol spec (or an experiment-suite selection),
// physics overrides, and a seed; the daemon answers job handles that
// can be polled, canceled, streamed round-by-round as NDJSON, and
// rendered as the text/CSV/JSON tables of stats.NewSink — byte-
// identical to the batch CLIs for the same configuration.
//
// Two layers do the heavy lifting. internal/jobs bounds admission: a
// fixed-depth queue that rejects with 429 + Retry-After when full, a
// fixed worker pool, per-job cancellation, and a graceful drain on
// shutdown. The warm-engine Cache content-addresses deployments by
// (scenario spec, engine+physics key, seed): a miss generates the
// topology and constructs the engine once; every request — including
// the missing one — receives a ~sub-microsecond clone sharing the
// immutable topology slabs, so repeated studies over one deployment
// pay generation and construction exactly once.
//
// Crash safety is opt-in via Config.JournalPath (Open instead of New):
// an append-only NDJSON write-ahead journal records every accepted job
// spec — fsynced before the admission response — plus per-trial rows,
// experiment-trial checkpoints, and terminal states, with group-commit
// batching the fsyncs. Restart replay drops completed jobs, rebuilds
// the hottest cache keys so early submissions hit warm, and re-queues
// in-flight jobs under their original ids, resuming from the journaled
// trial high-water mark; because per-trial seeds derive from (seed,
// trial), resumed tables are byte-identical to uninterrupted runs.
// Journal failures degrade /healthz but never fail jobs: a bounded
// reopen path recovers from transient errors, and records lost in the
// meantime stay counted (journal_dropped). /readyz answers 503 during
// replay and drain; a per-key circuit
// breaker fast-fails (422) submissions whose cache key keeps failing
// to build; and the 429 Retry-After hint tracks the measured drain
// rate. The chaos suite exercises all of it through the deterministic
// fault points of internal/faultinject.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sinrcast/internal/faultinject"
	"sinrcast/internal/jobs"
	"sinrcast/internal/stats"
)

// Config sizes a Server. The zero value is serviceable: jobs.Config
// defaults, a DefaultCacheBytes cache, progress every 256 rounds, no
// journal.
type Config struct {
	// Jobs configures the admission queue and worker pool.
	Jobs jobs.Config
	// CacheBytes is the warm-engine cache budget: 0 selects
	// DefaultCacheBytes, negative disables caching.
	CacheBytes int64
	// ProgressEvery is the default progress-event cadence in resolved
	// rounds for run jobs that do not set their own (0 selects 256,
	// negative disables progress events).
	ProgressEvery int
	// JournalPath, when set, enables the crash-safety journal: accepted
	// job specs, completed trials, and terminal states are logged to
	// this NDJSON file, and Open replays it on restart. Empty disables
	// journaling (New never journals).
	JournalPath string
	// RewarmHot caps how many of the journal's hottest cache keys are
	// rebuilt during replay (0 selects 8, negative disables rewarming).
	RewarmHot int
}

func (c Config) withDefaults() Config {
	if c.CacheBytes == 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.ProgressEvery == 0 {
		c.ProgressEvery = 256
	}
	if c.RewarmHot == 0 {
		c.RewarmHot = 8
	}
	return c
}

// jobState is serve's per-job record, carried as the value of the
// job's jobs.Handle: the original request, the event log feeding
// /stream, the result table and the resume state. It is freed when the
// manager prunes the handle.
type jobState struct {
	// id is the handle's id. On the submit path it is assigned after
	// Submit returns, so only the job body and the terminal watcher —
	// both ordered after admit — read it; handlers use the handle's ID.
	id  string
	req *JobRequest
	log *eventLog

	// Resume state, populated only by journal replay: the contiguous
	// prefix of completed run-job trial rows, and the checkpointed
	// experiment trial results keyed by (expID, point, trial). Both are
	// read-only once the job starts.
	resumeRows   [][]string
	resumeTrials map[trialKey][]byte

	mu    sync.Mutex
	table *stats.Table
}

// trialKey addresses one checkpointed experiment trial.
type trialKey struct {
	exp, point uint64
	trial      int
}

func (st *jobState) setTable(t *stats.Table) {
	st.mu.Lock()
	st.table = t
	st.mu.Unlock()
	st.log.append(event{Type: "table", Job: st.id, Table: t})
}

func (st *jobState) getTable() *stats.Table {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.table
}

// jobHandle is one job as the manager holds it, with its serve record.
type jobHandle = jobs.Handle[*jobState]

// Server is the daemon state: manager (the job registry), cache and
// journal.
type Server struct {
	cfg   Config
	mgr   *jobs.Manager[*jobState]
	cache *Cache

	// journal is nil unless the server was built by Open with a
	// JournalPath; every method on it is nil-safe.
	journal *Journal

	// ready is false while journal replay runs and flips true when the
	// daemon can serve results consistently; draining flips true when
	// Shutdown begins. /readyz reports 200 only for ready && !draining.
	ready         atomic.Bool
	draining      atomic.Bool
	replayDone    chan struct{}
	replaySkipped atomic.Int64

	// renderErrs counts result renderings whose sink reported a write
	// or flush error after the status line was already committed — the
	// only remaining way to surface a mid-body failure.
	renderErrs atomic.Int64

	// admitMu fences admission against Shutdown: admit holds the read
	// lock from the draining check through watcher registration and the
	// accept-record append, and Shutdown takes the write lock after
	// flipping draining — so no watchers.Add can race watchers.Wait and
	// no accept record can land after the journal closes.
	admitMu sync.RWMutex

	// watchers tracks the per-job terminal-state goroutines so Shutdown
	// can wait for the last "done" journal record before closing the
	// journal.
	watchers sync.WaitGroup

	// runHook, when set by tests, runs at the start of every job body
	// with the job id; it lets tests gate job execution
	// deterministically (backpressure, cancellation, shutdown).
	runHook func(id string)
}

// New builds a Server with its own jobs.Manager and warm-engine cache,
// without journaling or replay. Use Open for a crash-safe daemon.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	done := make(chan struct{})
	close(done)
	s := &Server{
		cfg:        cfg,
		mgr:        jobs.New[*jobState](cfg.Jobs),
		cache:      NewCache(cfg.CacheBytes),
		replayDone: done,
	}
	s.ready.Store(true)
	return s
}

// Open builds a Server and, when cfg.JournalPath is set, recovers the
// previous incarnation's state from the journal before the new one is
// ready: the hottest cache keys are rebuilt and every job that was
// accepted but not terminal at the crash is re-queued under its
// original id, resuming at its completed-trial high-water mark. Replay
// runs in the background — the HTTP listener can come up immediately —
// and /readyz answers 503 until it finishes.
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if s.cfg.JournalPath == "" {
		return s, nil
	}
	recs, skipped, err := ReadJournalRecords(s.cfg.JournalPath)
	if err != nil {
		return nil, fmt.Errorf("serve: reading journal: %w", err)
	}
	// Reserve every journaled id before any traffic can reach Submit:
	// replay runs in the background while handleSubmit keeps accepting,
	// and a fresh id colliding with an in-flight journaled id would make
	// its Resubmit fail — and hand clients polling the original id a
	// different job.
	for _, rec := range recs {
		s.mgr.ReserveThrough(rec.ID)
	}
	j, err := OpenJournal(s.cfg.JournalPath)
	if err != nil {
		return nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	s.journal = j
	s.ready.Store(false)
	s.replayDone = make(chan struct{})
	go s.replay(recs, skipped)
	return s, nil
}

// ReplayDone returns a channel closed once journal replay has finished
// (immediately for servers without a journal). Tests and orchestration
// wait on it; clients should poll /readyz.
func (s *Server) ReplayDone() <-chan struct{} { return s.replayDone }

// Cache exposes the warm-engine cache (benchmarks and tests).
func (s *Server) Cache() *Cache { return s.cache }

// Journal exposes the write-ahead journal; nil without one (tests).
func (s *Server) Journal() *Journal { return s.journal }

// Shutdown drains the daemon: /readyz starts failing, submissions are
// rejected, queued jobs fail cleanly, in-flight jobs finish (or are
// force-canceled when ctx expires), their terminal states are
// journaled, and the journal is flushed and closed. See
// jobs.Manager.Shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Replay observes draining and winds down promptly, leaving
	// not-yet-re-queued jobs for the next incarnation; waiting for it
	// here means every job replay did re-queue is inside the manager —
	// and its journal records appended — before the drain and the
	// journal close below.
	select {
	case <-s.replayDone:
	case <-ctx.Done():
	}
	// Barrier: an admission that passed the draining check holds the
	// read lock until its watcher is registered and its accept record
	// appended, so past this point no watchers.Add races watchers.Wait
	// and no accept record chases a closed journal.
	s.admitMu.Lock()
	s.admitMu.Unlock()
	err := s.mgr.Shutdown(ctx)
	s.watchers.Wait()
	// A journal failure is a recorded degradation (Err, /healthz), not
	// a shutdown failure: the drain completed either way.
	s.journal.Close()
	return err
}

// Handler returns the HTTP API:
//
//	GET    /healthz              liveness (+ journal degradation report)
//	GET    /readyz               readiness: 503 during replay and drain
//	POST   /v1/jobs              submit a JobRequest → 202 {id, state}
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         job status
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/jobs/{id}/stream  NDJSON event stream (replays history)
//	GET    /v1/jobs/{id}/result  result table; ?format=text|csv|json, ?wait=1
//	GET    /v1/cache             cache + queue statistics
//	POST   /rpc                  JSON-RPC 2.0 (job.submit/status/cancel/list, cache.stats)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/cache", s.handleCacheStats)
	mux.HandleFunc("POST /rpc", s.handleRPC)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]any{"error": fmt.Sprintf(format, args...)})
}

// handleHealthz is liveness plus the degradation report: a daemon with
// a sticky journal error or sink render failures is alive (200) but
// says so, so operators see a crash-safety gap before the next crash.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{"ok": true}
	if jerr := s.journal.Err(); jerr != nil {
		body["journal_error"] = jerr.Error()
		body["degraded"] = true
	}
	if n := s.journal.Dropped(); n > 0 {
		// Records lost to a journal failure stay visible even after a
		// reopen recovers the file: the crash-safety gap is permanent
		// for those jobs.
		body["journal_dropped"] = n
		body["degraded"] = true
	}
	if n := s.renderErrs.Load(); n > 0 {
		body["render_errors"] = n
	}
	if n := s.replaySkipped.Load(); n > 0 {
		body["replay_skipped"] = n
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReadyz gates load balancing: 503 while journal replay is still
// rebuilding state and again once Shutdown starts draining. Liveness
// (/healthz) stays 200 through both.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready := s.ready.Load() && !s.draining.Load()
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"ready":    ready,
		"replayed": s.ready.Load(),
		"draining": s.draining.Load(),
	})
}

// submit validates and admits a request, returning the job or an
// admission error. Both transports (REST and RPC) route through it.
func (s *Server) submit(req *JobRequest) (*jobHandle, error) {
	return s.admit(req, "", nil, nil)
}

// admit is submit plus the replay entry point: a non-empty id re-queues
// a journaled job under its original id with its resume state.
func (s *Server) admit(req *JobRequest, id string, resumeRows [][]string, resumeTrials map[trialKey][]byte) (*jobHandle, error) {
	if err := req.validate(); err != nil {
		return nil, &badRequestError{err}
	}
	// A key whose builds keep failing fast-fails here, at admission —
	// the job would only rediscover the open circuit at run time, after
	// occupying a queue slot.
	if key, ok := req.runCacheKey(); ok {
		if err := s.cache.Negative(key); err != nil {
			return nil, err
		}
	}
	// The admission section pairs a draining check with admitMu's read
	// lock (see Shutdown): every admission either completes before the
	// drain starts or is rejected here.
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		return nil, jobs.ErrShutdown
	}
	st := &jobState{req: req, log: newEventLog(), resumeRows: resumeRows, resumeTrials: resumeTrials}
	// st.id is assigned only after Submit returns, but a worker may pick
	// the job up immediately; ready gates the closure so it never
	// observes it unset (and so the "queued" event always precedes
	// "running" in the log).
	ready := make(chan struct{})
	run := func(ctx context.Context, engineWorkers int) error {
		<-ready
		if s.runHook != nil {
			s.runHook(st.id)
		}
		st.log.append(event{Type: "state", Job: st.id, State: string(jobs.StateRunning)})
		var err error
		if req.isExperiment() {
			err = s.runExperiment(ctx, st, engineWorkers)
		} else {
			err = s.runSim(ctx, st, engineWorkers)
		}
		return err
	}
	var h *jobHandle
	var err error
	if id == "" {
		h, err = s.mgr.Submit(req.name(), st, run)
	} else {
		h, err = s.mgr.Resubmit(id, req.name(), st, run)
	}
	if err != nil {
		return nil, err
	}
	st.id = h.ID()
	// Write-ahead: the accept record is durable before the admission
	// response leaves the daemon, so a crash after this point can never
	// lose the job.
	s.journal.AppendSync(journalRecord{Op: "accept", ID: st.id, Req: req})
	st.log.append(event{Type: "state", Job: st.id, State: string(jobs.StateQueued)})
	close(ready)
	// Close the event stream with the terminal state once the job
	// finishes, whatever path it took, and journal that state so a
	// restart knows the job needs no replay.
	s.watchers.Add(1)
	go func() {
		defer s.watchers.Done()
		<-h.Done()
		state, jerr := h.State()
		e := event{Type: "state", Job: st.id, State: string(state)}
		rec := journalRecord{Op: "done", ID: st.id, State: string(state)}
		if jerr != nil {
			e.Error = jerr.Error()
			rec.Error = jerr.Error()
		}
		st.log.append(e)
		st.log.close()
		s.journal.Append(rec)
	}()
	return h, nil
}

// replayedJob folds one job's journal records.
type replayedJob struct {
	id      string
	req     *JobRequest
	rows    map[int][]string
	etrials map[trialKey][]byte
	done    bool
}

// foldJournal folds journal records into per-job replay state, jobs
// in first-journaled order: the last accept's request and the last row
// of each trial win, and a done record is final. Folding a record
// stream twice over leaves the same state as folding it once, so a
// record duplicated in the journal cannot change what is replayed.
func foldJournal(recs []journalRecord) (byID map[string]*replayedJob, order []string) {
	byID = make(map[string]*replayedJob)
	for _, rec := range recs {
		rj := byID[rec.ID]
		if rj == nil {
			rj = &replayedJob{id: rec.ID}
			byID[rec.ID] = rj
			order = append(order, rec.ID)
		}
		switch rec.Op {
		case "accept":
			if rec.Req != nil {
				rj.req = rec.Req
			}
		case "trial":
			if rj.rows == nil {
				rj.rows = make(map[int][]string)
			}
			rj.rows[rec.Trial] = rec.Row
		case "etrial":
			if rj.etrials == nil {
				rj.etrials = make(map[trialKey][]byte)
			}
			rj.etrials[trialKey{rec.Exp, rec.Point, rec.Trial}] = rec.Data
		case "done":
			rj.done = true
		}
	}
	return byID, order
}

// replay rebuilds daemon state from the previous incarnation's journal
// records: the hottest cache keys are rebuilt (most-referenced first,
// ties to the most recently journaled), then every job that was
// accepted but never reached a terminal state is re-queued under its
// original id with its completed-trial high-water mark. Runs in the
// background; /readyz flips to 200 once it returns.
func (s *Server) replay(recs []journalRecord, skipped int) {
	defer func() {
		s.replaySkipped.Store(int64(skipped))
		s.ready.Store(true)
		close(s.replayDone)
	}()
	byID, order := foldJournal(recs)
	type heat struct {
		req   *JobRequest
		count int
		last  int
	}
	keys := make(map[string]*heat)
	for i, rec := range recs {
		if rec.Op != "accept" || rec.Req == nil {
			continue
		}
		if key, ok := rec.Req.runCacheKey(); ok {
			h := keys[key]
			if h == nil {
				h = &heat{req: rec.Req}
				keys[key] = h
			}
			h.count++
			h.last = i
		}
	}

	if s.cfg.RewarmHot > 0 {
		type ranked struct {
			key string
			h   *heat
		}
		var hot []ranked
		for k, h := range keys {
			hot = append(hot, ranked{k, h})
		}
		sort.Slice(hot, func(a, b int) bool {
			if hot[a].h.count != hot[b].h.count {
				return hot[a].h.count > hot[b].h.count
			}
			if hot[a].h.last != hot[b].h.last {
				return hot[a].h.last > hot[b].h.last
			}
			return hot[a].key < hot[b].key
		})
		if len(hot) > s.cfg.RewarmHot {
			hot = hot[:s.cfg.RewarmHot]
		}
		for _, r := range hot {
			if s.draining.Load() {
				break
			}
			s.rewarm(r.h.req)
		}
	}

	for _, id := range order {
		rj := byID[id]
		if rj.done || rj.req == nil {
			continue
		}
		if s.draining.Load() {
			// Shutdown mid-replay: leave the remaining accept records
			// un-terminated so the next incarnation replays them.
			return
		}
		if _, err := s.admit(rj.req, rj.id, contiguousRows(rj.rows), rj.etrials); err != nil {
			if errors.Is(err, jobs.ErrShutdown) {
				return // as above: the job stays replayable
			}
			s.failReplayed(rj, err)
		}
	}
}

// failReplayed records a durably accepted job that could not be
// re-queued (queue overflow, a spec the new binary rejects): the loss
// is journaled as the terminal state so the next restart skips it, and
// a pre-failed handle is registered so clients polling the original id
// see "failed" — never a 404 for a job the daemon acknowledged.
func (s *Server) failReplayed(rj *replayedJob, cause error) {
	ferr := fmt.Errorf("replay: %w", cause)
	st := &jobState{id: rj.id, req: rj.req, log: newEventLog()}
	st.log.append(event{Type: "state", Job: rj.id, State: string(jobs.StateFailed), Error: ferr.Error()})
	st.log.close()
	s.mgr.RegisterFailed(rj.id, rj.req.name(), st, ferr)
	s.journal.Append(journalRecord{Op: "done", ID: rj.id,
		State: string(jobs.StateFailed), Error: ferr.Error()})
}

// contiguousRows returns the longest 0-based contiguous prefix of
// journaled trial rows — the resume high-water mark. Rows past a gap
// cannot be placed positionally and are recomputed instead.
func contiguousRows(rows map[int][]string) [][]string {
	var out [][]string
	for t := 0; ; t++ {
		row, ok := rows[t]
		if !ok {
			return out
		}
		out = append(out, row)
	}
}

type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	h, err := s.submit(&req)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	state, _ := h.State()
	writeJSON(w, http.StatusAccepted, map[string]any{"id": h.ID(), "state": string(state)})
}

func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	var open *CircuitOpenError
	switch {
	case isBadRequest(err):
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.As(err, &open):
		// The key's builds keep failing; retrying the identical spec
		// before the breaker's TTL would only rediscover the failure.
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	case err == jobs.ErrQueueFull:
		// Backpressure, not failure: the hint is computed from the
		// observed queue drain rate, so a client backing off by it
		// should find a slot on the first retry.
		w.Header().Set("Retry-After", strconv.Itoa(int(s.mgr.RetryAfter()/time.Second)))
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case err == jobs.ErrShutdown:
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func isBadRequest(err error) bool {
	var bad *badRequestError
	return errors.As(err, &bad)
}

// statusJSON is the wire form of one job's status.
type statusJSON struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	Created  string `json:"created"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
	Result   bool   `json:"result"`
}

func status(h *jobHandle) statusJSON {
	state, err := h.State()
	created, started, finished := h.Times()
	out := statusJSON{
		ID:      h.ID(),
		Name:    h.Name(),
		State:   string(state),
		Created: created.UTC().Format(time.RFC3339Nano),
		Result:  h.Value().getTable() != nil,
	}
	if err != nil {
		out.Error = err.Error()
	}
	if !started.IsZero() {
		out.Started = started.UTC().Format(time.RFC3339Nano)
	}
	if !finished.IsZero() {
		out.Finished = finished.UTC().Format(time.RFC3339Nano)
	}
	return out
}

// list is the status of every retained job, in submission order — the
// body of GET /v1/jobs and of the job.list RPC.
func (s *Server) list() []statusJSON {
	hs := s.mgr.Jobs()
	out := make([]statusJSON, len(hs))
	for i, h := range hs {
		out[i] = status(h)
	}
	return out
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.list())
}

// lookup finds the path's job, answering 404 itself when there is none.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*jobHandle, bool) {
	h, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
	}
	return h, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, status(h))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.lookup(w, r); ok {
		h.Cancel()
		writeJSON(w, http.StatusOK, status(h))
	}
}

// handleStream replays the job's event log as NDJSON and follows it
// until the job reaches a terminal state or the client goes away. Each
// line is flushed immediately — this is the live progress feed.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	events := h.Value().log
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	ctx := r.Context()
	offset := 0
	for {
		lines, closed, wake := events.next(offset)
		for _, line := range lines {
			// A departed client must release the stream promptly even
			// when the log keeps producing: writes to a closed
			// connection can report success into kernel buffers for a
			// while, so the context — cancelled the moment the
			// connection drops — is checked per line, not just between
			// batches.
			if ctx.Err() != nil {
				return
			}
			// line is shared by every stream of this job; appending the
			// newline in place would race on the slice's spare capacity.
			if _, err := w.Write(line); err != nil {
				return
			}
			if _, err := w.Write([]byte{'\n'}); err != nil {
				return
			}
		}
		offset += len(lines)
		if len(lines) > 0 && flusher != nil {
			flusher.Flush()
		}
		if closed {
			return
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return
		}
	}
}

// handleResult renders the job's result table through stats.NewSink —
// the same renderer as the batch CLIs, so the bytes are directly
// comparable. ?wait=1 blocks until the job finishes; otherwise a job
// without a table yet answers 409.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "text"
	}
	valid := false
	for _, f := range stats.SinkFormats() {
		if f == format {
			valid = true
		}
	}
	if !valid {
		writeError(w, http.StatusBadRequest, "unknown format %q (want one of %v)", format, stats.SinkFormats())
		return
	}
	if wait, _ := strconv.ParseBool(r.URL.Query().Get("wait")); wait {
		if err := h.Wait(r.Context()); err != nil && r.Context().Err() != nil {
			return // client went away
		}
	}
	state, jerr := h.State()
	if jerr != nil {
		writeError(w, http.StatusUnprocessableEntity, "job %s %s: %v", h.ID(), state, jerr)
		return
	}
	tb := h.Value().getTable()
	if tb == nil {
		writeError(w, http.StatusConflict, "job %s is %s; no result yet (use ?wait=1)", h.ID(), state)
		return
	}
	switch format {
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
	case "json":
		w.Header().Set("Content-Type", "application/json")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	sink, err := stats.NewSink(format, &sinkWriter{w: w})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// The status line is already committed, so a mid-body write or
	// flush failure cannot change the response code — it is counted
	// and surfaced through /healthz instead of being swallowed.
	werr := sink.Emit(tb)
	if werr == nil {
		werr = sink.Close()
	}
	if werr != nil {
		s.renderErrs.Add(1)
	}
}

// sinkWriter is the result-body writer handed to stats.NewSink: it
// carries the sink-flush fault point so the chaos suite can fail a
// rendering mid-body and assert the failure is surfaced, not
// swallowed.
type sinkWriter struct{ w http.ResponseWriter }

func (sw *sinkWriter) Write(p []byte) (int, error) {
	if err := faultinject.Fire(faultinject.SinkFlush); err != nil {
		return 0, err
	}
	return sw.w.Write(p)
}

// RenderErrors returns how many result renderings failed mid-body
// (tests, /healthz).
func (s *Server) RenderErrors() int64 { return s.renderErrs.Load() }

func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"cache": s.cache.Stats(),
		"jobs":  s.mgr.Stats(),
	})
}
