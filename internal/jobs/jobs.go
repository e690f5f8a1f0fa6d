// Package jobs is a bounded, admission-controlled task manager: the
// execution half of the sinrcastd service. Work is admitted into a
// fixed-depth queue — a full queue rejects immediately with
// ErrQueueFull so the transport can answer 429 + Retry-After instead
// of buffering unbounded work — and executed by a fixed pool of job
// workers. Every job gets its own cancellation context, and the
// machine's resolver-worker budget (the sinr engines' chunk workers)
// is divided across the job workers, so J concurrent jobs never
// oversubscribe the cores a single batch run would use.
//
// Shutdown is graceful and two-phased: new submissions are rejected,
// jobs still waiting in the queue fail with ErrShutdown (a clean,
// queryable error — the work never started), and in-flight jobs drain
// to completion. If the caller's context expires first, running jobs
// are cancelled through their own contexts and the manager waits for
// them to unwind.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sinrcast/internal/faultinject"
)

var (
	// ErrQueueFull rejects a submission when the admission queue is at
	// capacity. Transports map it to backpressure (HTTP 429).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrShutdown rejects submissions to — and fails queued jobs of —
	// a manager that is shutting down.
	ErrShutdown = errors.New("jobs: manager shutting down")
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// RunFunc is one job's body. ctx is the job's own context — cancelled
// by Cancel, and by Shutdown once its drain deadline passes — and
// engineWorkers is the job's share of the machine's resolver-worker
// budget (pass it to sinr.Resolver.SetWorkers or exp.Config.Workers).
// Returning ctx's error marks the job canceled; any other error marks
// it failed.
type RunFunc func(ctx context.Context, engineWorkers int) error

// Config sizes a Manager. Zero values pick the documented defaults.
type Config struct {
	// QueueDepth bounds jobs admitted but not yet running (default 64).
	QueueDepth int
	// Workers is the number of jobs executing concurrently (default 2).
	Workers int
	// EngineWorkers is the total resolver-worker budget shared by the
	// running jobs (default GOMAXPROCS). Each job receives
	// max(1, EngineWorkers/Workers) — the resolver layer is already
	// parallel, so job concurrency must not multiply it.
	EngineWorkers int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.EngineWorkers <= 0 {
		c.EngineWorkers = runtime.GOMAXPROCS(0)
	}
	return c
}

// EngineWorkersPerJob returns the per-job resolver-worker share.
func (c Config) EngineWorkersPerJob() int {
	c = c.withDefaults()
	w := c.EngineWorkers / c.Workers
	if w < 1 {
		w = 1
	}
	return w
}

// Handle is one submitted job. All methods are safe for concurrent
// use.
type Handle struct {
	id   string
	name string
	run  RunFunc

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    State
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
	done     chan struct{}
}

// ID returns the manager-assigned job id.
func (h *Handle) ID() string { return h.id }

// Name returns the caller-supplied display name.
func (h *Handle) Name() string { return h.name }

// State returns the current state and, for failed/canceled jobs, the
// error.
func (h *Handle) State() (State, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state, h.err
}

// Times returns the creation, start, and finish instants; started and
// finished are zero until the corresponding transition.
func (h *Handle) Times() (created, started, finished time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.created, h.started, h.finished
}

// Done returns a channel closed when the job reaches a terminal state.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Wait blocks until the job finishes or ctx expires, returning the
// job's terminal error (nil for done).
func (h *Handle) Wait(ctx context.Context) error {
	select {
	case <-h.done:
		_, err := h.State()
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Cancel requests cancellation: a queued job finishes canceled without
// running; a running job has its context cancelled and finishes when
// its RunFunc returns.
func (h *Handle) Cancel() {
	h.cancel()
	h.mu.Lock()
	if h.state == StateQueued {
		h.finishLocked(StateCanceled, context.Canceled)
	}
	h.mu.Unlock()
}

// tryStart moves queued → running; false when the job was cancelled
// while queued (the worker skips it).
func (h *Handle) tryStart() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != StateQueued {
		return false
	}
	h.state = StateRunning
	h.started = time.Now()
	return true
}

// finish records the terminal state of a job that ran.
func (h *Handle) finish(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state.Terminal() {
		return
	}
	switch {
	case err == nil:
		h.finishLocked(StateDone, nil)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		h.finishLocked(StateCanceled, err)
	default:
		h.finishLocked(StateFailed, err)
	}
}

// failQueued fails a job that never ran (shutdown drain).
func (h *Handle) failQueued(err error) {
	h.mu.Lock()
	if !h.state.Terminal() {
		h.finishLocked(StateFailed, err)
	}
	h.mu.Unlock()
	h.cancel()
}

func (h *Handle) finishLocked(s State, err error) {
	h.state = s
	h.err = err
	h.finished = time.Now()
	close(h.done)
}

// Stats is a point-in-time counter snapshot. Queued/Depth and
// DrainPerSec are the load gauges behind the transport's dynamic
// Retry-After: depth says how much headroom the queue has, the drain
// rate how fast slots free up.
type Stats struct {
	Queued      int     `json:"queued"`
	Depth       int     `json:"depth"`
	Running     int     `json:"running"`
	Submitted   int64   `json:"submitted"`
	Rejected    int64   `json:"rejected"`
	Completed   int64   `json:"completed"`
	DrainPerSec float64 `json:"drain_per_sec"`
}

// Manager runs jobs from a bounded queue on a fixed worker pool.
type Manager struct {
	cfg   Config
	queue chan *Handle
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Handle
	order    []string
	nextID   int64
	shutdown bool

	running   atomic.Int64
	submitted atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64

	// drainMu guards the completion-time ring feeding DrainRate.
	drainMu   sync.Mutex
	drainRing [drainSamples]time.Time
	drainLen  int
	drainPos  int
}

// drainSamples bounds the completion-time window of the drain-rate
// estimate; drainWindow bounds its age.
const (
	drainSamples = 32
	drainWindow  = 30 * time.Second
)

// maxRetained bounds how many finished jobs stay queryable; older ones
// are pruned oldest-first so a long-running daemon does not grow
// without bound.
const maxRetained = 4096

// New starts a manager with cfg's (defaulted) queue depth and worker
// pool.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:   cfg,
		queue: make(chan *Handle, cfg.QueueDepth),
		jobs:  make(map[string]*Handle),
	}
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m
}

// Config returns the effective (defaulted) configuration.
func (m *Manager) Config() Config { return m.cfg }

// Submit admits a job. It returns ErrQueueFull when the admission
// queue is at capacity and ErrShutdown after Shutdown began; both are
// immediate — Submit never blocks on the queue.
func (m *Manager) Submit(name string, run RunFunc) (*Handle, error) {
	return m.admit("", name, run)
}

// Resubmit admits a job under a caller-supplied id — the journal
// replay path, where a restarted daemon re-queues work that was
// in-flight at the crash and clients must find it under its original
// id. The id counter advances past the replayed id so fresh Submit
// ids never collide; an id already live in the manager is an error.
func (m *Manager) Resubmit(id, name string, run RunFunc) (*Handle, error) {
	if id == "" {
		return nil, fmt.Errorf("jobs: Resubmit needs an id")
	}
	return m.admit(id, name, run)
}

// ReserveThrough advances the id counter so no future Submit assigns
// "jK" for any K <= n. Journal replay calls it with the highest id
// found in the journal before any traffic is accepted, so fresh ids
// can never collide with ids Resubmit will re-queue later.
func (m *Manager) ReserveThrough(n int64) {
	m.mu.Lock()
	if n > m.nextID {
		m.nextID = n
	}
	m.mu.Unlock()
}

// RegisterFailed records a job that could not be re-queued (e.g. the
// replay of a journal whose in-flight jobs exceed the new queue depth)
// as already failed, so clients querying its id find a terminal state
// instead of a vanished job. It occupies no queue slot and never runs.
func (m *Manager) RegisterFailed(id, name string, cause error) (*Handle, error) {
	if id == "" {
		return nil, fmt.Errorf("jobs: RegisterFailed needs an id")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.jobs[id]; exists {
		return nil, fmt.Errorf("jobs: id %s already exists", id)
	}
	if n, err := strconv.ParseInt(strings.TrimPrefix(id, "j"), 10, 64); err == nil && n > m.nextID {
		m.nextID = n
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	now := time.Now()
	h := &Handle{
		id:       id,
		name:     name,
		ctx:      ctx,
		cancel:   cancel,
		state:    StateFailed,
		err:      cause,
		created:  now,
		finished: now,
		done:     make(chan struct{}),
	}
	close(h.done)
	m.jobs[id] = h
	m.order = append(m.order, id)
	// Submitted and Completed move together so the drain invariant
	// (Submitted == Completed after Shutdown) holds; the drain-rate ring
	// is left alone — nothing actually drained through a worker.
	m.submitted.Add(1)
	m.completed.Add(1)
	m.pruneLocked()
	return h, nil
}

func (m *Manager) admit(id, name string, run RunFunc) (*Handle, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.shutdown {
		m.rejected.Add(1)
		return nil, ErrShutdown
	}
	assigned := id == ""
	if assigned {
		m.nextID++
		id = fmt.Sprintf("j%d", m.nextID)
	} else {
		if _, exists := m.jobs[id]; exists {
			return nil, fmt.Errorf("jobs: id %s already exists", id)
		}
		if n, err := strconv.ParseInt(strings.TrimPrefix(id, "j"), 10, 64); err == nil && n > m.nextID {
			m.nextID = n
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &Handle{
		id:      id,
		name:    name,
		run:     run,
		ctx:     ctx,
		cancel:  cancel,
		state:   StateQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	select {
	case m.queue <- h:
	default:
		if assigned {
			m.nextID--
		}
		m.rejected.Add(1)
		cancel()
		return nil, ErrQueueFull
	}
	m.jobs[h.id] = h
	m.order = append(m.order, h.id)
	m.submitted.Add(1)
	m.pruneLocked()
	return h, nil
}

// pruneLocked drops the oldest finished jobs beyond maxRetained.
func (m *Manager) pruneLocked() {
	for len(m.order) > maxRetained {
		id := m.order[0]
		if h, ok := m.jobs[id]; ok {
			if s, _ := h.State(); !s.Terminal() {
				return // oldest still live; nothing older to drop
			}
			delete(m.jobs, id)
		}
		m.order = m.order[1:]
	}
}

// Get returns a submitted job by id.
func (m *Manager) Get(id string) (*Handle, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.jobs[id]
	return h, ok
}

// Jobs returns all retained handles in submission order.
func (m *Manager) Jobs() []*Handle {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Handle, 0, len(m.order))
	for _, id := range m.order {
		if h, ok := m.jobs[id]; ok {
			out = append(out, h)
		}
	}
	return out
}

// Cancel cancels the job with the given id; false if unknown.
func (m *Manager) Cancel(id string) bool {
	h, ok := m.Get(id)
	if !ok {
		return false
	}
	h.Cancel()
	return true
}

// Stats snapshots the counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Queued:      len(m.queue),
		Depth:       cap(m.queue),
		Running:     int(m.running.Load()),
		Submitted:   m.submitted.Load(),
		Rejected:    m.rejected.Load(),
		Completed:   m.completed.Load(),
		DrainPerSec: m.DrainRate(),
	}
}

// completeOne counts a job that reached a terminal state and feeds the
// drain-rate window.
func (m *Manager) completeOne() {
	m.completed.Add(1)
	now := time.Now()
	m.drainMu.Lock()
	m.drainRing[m.drainPos] = now
	m.drainPos = (m.drainPos + 1) % drainSamples
	if m.drainLen < drainSamples {
		m.drainLen++
	}
	m.drainMu.Unlock()
}

// DrainRate estimates how fast the manager currently retires jobs, in
// completions per second, from the last drainSamples completion
// instants no older than drainWindow. It returns 0 before two
// completions land in the window — callers fall back to a fixed
// Retry-After.
func (m *Manager) DrainRate() float64 {
	now := time.Now()
	m.drainMu.Lock()
	defer m.drainMu.Unlock()
	var oldest time.Time
	count := 0
	for i := 0; i < m.drainLen; i++ {
		ts := m.drainRing[i]
		if now.Sub(ts) > drainWindow {
			continue
		}
		if count == 0 || ts.Before(oldest) {
			oldest = ts
		}
		count++
	}
	if count < 2 {
		return 0
	}
	span := now.Sub(oldest).Seconds()
	if span <= 0 {
		span = 1e-3
	}
	return float64(count) / span
}

// RetryAfter translates the current queue depth and drain rate into a
// backpressure hint: roughly how long until a queue slot frees, in
// whole seconds, clamped to [1, 60]. With no drain observed yet it
// answers a conservative 2.
func (m *Manager) RetryAfter() time.Duration {
	rate := m.DrainRate()
	if rate <= 0 {
		return 2 * time.Second
	}
	secs := math.Ceil(float64(len(m.queue)+1) / rate)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return time.Duration(secs) * time.Second
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for h := range m.queue {
		if !h.tryStart() {
			// Cancelled (or failed by shutdown) while queued: already
			// terminal, so count it completed just like the drain path.
			m.completeOne()
			continue
		}
		m.running.Add(1)
		err := m.invoke(h)
		h.finish(err)
		m.running.Add(-1)
		m.completeOne()
	}
}

// invoke runs a job's body, converting a panic into a failure so one
// bad job cannot take the worker pool down. The stall hook lets the
// chaos suite hold a worker between dequeue and run.
func (m *Manager) invoke(h *Handle) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: job %s panicked: %v", h.id, r)
		}
	}()
	if err := faultinject.Fire(faultinject.WorkerStall); err != nil {
		return err
	}
	return h.run(h.ctx, m.cfg.EngineWorkersPerJob())
}

// Shutdown stops the manager: submissions are rejected, queued jobs
// fail with ErrShutdown without running, and in-flight jobs drain. If
// ctx expires before the drain completes, running jobs are cancelled
// through their contexts and Shutdown still waits for their RunFuncs
// to unwind, returning ctx's error to signal the drain was forced.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.shutdown {
		m.mu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.shutdown = true
	m.mu.Unlock()

	// Fail everything still queued. Workers may race us for entries —
	// either outcome is sound: the worker runs a job admitted before
	// shutdown, or we fail it cleanly here.
	for {
		select {
		case h := <-m.queue:
			h.failQueued(ErrShutdown)
			m.completeOne()
		default:
			close(m.queue)
			goto drained
		}
	}
drained:
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, h := range m.Jobs() {
			if s, _ := h.State(); s == StateRunning {
				h.cancel()
			}
		}
		<-done
		return ctx.Err()
	}
}
