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
// The Manager is the service's only id → job table: each Handle
// carries one caller-defined value V (the transport's per-job record),
// so the record lives exactly as long as the manager retains the job.
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
	"slices"
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
type Handle[V any] struct {
	id    string
	name  string
	value V
	run   RunFunc

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
func (h *Handle[V]) ID() string { return h.id }

// Name returns the caller-supplied display name.
func (h *Handle[V]) Name() string { return h.name }

// Value returns the caller-supplied per-job value.
func (h *Handle[V]) Value() V { return h.value }

// State returns the current state and, for failed/canceled jobs, the
// error.
func (h *Handle[V]) State() (State, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state, h.err
}

// Times returns the creation, start, and finish instants; started and
// finished are zero until the corresponding transition.
func (h *Handle[V]) Times() (created, started, finished time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.created, h.started, h.finished
}

// Done returns a channel closed when the job reaches a terminal state.
func (h *Handle[V]) Done() <-chan struct{} { return h.done }

// Wait blocks until the job finishes or ctx expires, returning the
// job's terminal error (nil for done).
func (h *Handle[V]) Wait(ctx context.Context) error {
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
func (h *Handle[V]) Cancel() {
	h.cancel()
	h.mu.Lock()
	if h.state == StateQueued {
		h.finishLocked(StateCanceled, context.Canceled)
	}
	h.mu.Unlock()
}

// tryStart moves queued → running; false when the job was cancelled
// while queued (the worker skips it).
func (h *Handle[V]) tryStart() bool {
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
func (h *Handle[V]) finish(err error) {
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
func (h *Handle[V]) failQueued(err error) {
	h.mu.Lock()
	if !h.state.Terminal() {
		h.finishLocked(StateFailed, err)
	}
	h.mu.Unlock()
	h.cancel()
}

func (h *Handle[V]) finishLocked(s State, err error) {
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

// Manager runs jobs from a bounded queue on a fixed worker pool. V is
// the type of the per-job value its handles carry.
type Manager[V any] struct {
	cfg   Config
	queue chan *Handle[V]
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Handle[V]
	order    []*Handle[V] // retained jobs in submission order
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

// MaxRetained bounds how many jobs stay queryable: past it the oldest
// finished jobs are pruned, so a long-running daemon does not grow
// without bound. Live jobs are never pruned.
const MaxRetained = 4096

// New starts a manager with cfg's (defaulted) queue depth and worker
// pool.
func New[V any](cfg Config) *Manager[V] {
	cfg = cfg.withDefaults()
	m := &Manager[V]{
		cfg:   cfg,
		queue: make(chan *Handle[V], cfg.QueueDepth),
		jobs:  make(map[string]*Handle[V]),
	}
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m
}

// Config returns the effective (defaulted) configuration.
func (m *Manager[V]) Config() Config { return m.cfg }

// Submit admits a job carrying value. It returns ErrQueueFull when
// the admission queue is at capacity and ErrShutdown after Shutdown
// began; both are immediate — Submit never blocks on the queue.
func (m *Manager[V]) Submit(name string, value V, run RunFunc) (*Handle[V], error) {
	return m.admit("", name, value, run)
}

// Resubmit admits a job under a caller-supplied id — the journal
// replay path, where a restarted daemon re-queues work that was
// in-flight at the crash and clients must find it under its original
// id. The id counter advances past the replayed id so fresh Submit
// ids never collide; an id the manager still retains is an error.
func (m *Manager[V]) Resubmit(id, name string, value V, run RunFunc) (*Handle[V], error) {
	if id == "" {
		return nil, fmt.Errorf("jobs: Resubmit needs an id")
	}
	return m.admit(id, name, value, run)
}

// ReserveThrough advances the id counter so no future Submit assigns
// id or any "jK" below it; ids not of that form reserve nothing.
// Journal replay calls it with every journaled id before any traffic
// is accepted, so fresh ids can never collide with ids Resubmit will
// re-queue later.
func (m *Manager[V]) ReserveThrough(id string) {
	m.mu.Lock()
	m.reserveLocked(id)
	m.mu.Unlock()
}

// reserveLocked advances the id counter to N for an id "jN" — the one
// parser of the manager's id format.
func (m *Manager[V]) reserveLocked(id string) {
	digits, ok := strings.CutPrefix(id, "j")
	if n, err := strconv.ParseInt(digits, 10, 64); ok && err == nil && n > m.nextID {
		m.nextID = n
	}
}

// RegisterFailed records a job that could not be re-queued (e.g. the
// replay of a journal whose in-flight jobs exceed the new queue depth)
// as already failed, so clients querying its id find a terminal state
// instead of a vanished job. It occupies no queue slot and never runs.
func (m *Manager[V]) RegisterFailed(id, name string, value V, cause error) (*Handle[V], error) {
	if id == "" {
		return nil, fmt.Errorf("jobs: RegisterFailed needs an id")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h, err := m.newLocked(id, name, value, nil)
	if err != nil {
		return nil, err
	}
	h.cancel()
	h.finishLocked(StateFailed, cause)
	// Submitted and Completed move together so the drain invariant
	// (Submitted == Completed after Shutdown) holds; the drain-rate ring
	// is left alone — nothing actually drained through a worker.
	m.submitted.Add(1)
	m.completed.Add(1)
	m.retainLocked(h)
	return h, nil
}

func (m *Manager[V]) admit(id, name string, value V, run RunFunc) (*Handle[V], error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.shutdown {
		m.rejected.Add(1)
		return nil, ErrShutdown
	}
	assigned := id == ""
	h, err := m.newLocked(id, name, value, run)
	if err != nil {
		return nil, err
	}
	select {
	case m.queue <- h:
	default:
		if assigned {
			m.nextID--
		}
		m.rejected.Add(1)
		h.cancel()
		return nil, ErrQueueFull
	}
	m.submitted.Add(1)
	m.retainLocked(h)
	return h, nil
}

// newLocked builds a queued handle under id, or under the next fresh id
// when id is empty. A caller-supplied id must not be retained already.
func (m *Manager[V]) newLocked(id, name string, value V, run RunFunc) (*Handle[V], error) {
	if id == "" {
		m.nextID++
		id = fmt.Sprintf("j%d", m.nextID)
	} else if _, exists := m.jobs[id]; exists {
		return nil, fmt.Errorf("jobs: id %s already exists", id)
	} else {
		m.reserveLocked(id)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Handle[V]{
		id:      id,
		name:    name,
		value:   value,
		run:     run,
		ctx:     ctx,
		cancel:  cancel,
		state:   StateQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}, nil
}

// retainLocked registers h and prunes past MaxRetained: the oldest
// terminal jobs are dropped, and live ones keep their place however
// old they are. At most QueueDepth + Workers jobs are live, so a prune
// scans past at most that many before it has dropped enough.
func (m *Manager[V]) retainLocked(h *Handle[V]) {
	m.jobs[h.id] = h
	m.order = append(m.order, h)
	excess := len(m.order) - MaxRetained
	if excess <= 0 {
		return
	}
	// Walk the head dropping terminal jobs until excess are gone, then
	// slide the live ones met on the way up, in order, to just before
	// the first unvisited slot. Vacated slots are cleared so a pruned
	// job's value is freed now, not when append next moves the slice.
	i := 0
	for ; i < len(m.order) && excess > 0; i++ {
		old := m.order[i]
		if s, _ := old.State(); s.Terminal() {
			delete(m.jobs, old.id)
			m.order[i] = nil
			excess--
		}
	}
	head := i
	for j := i - 1; j >= 0; j-- {
		if live := m.order[j]; live != nil {
			m.order[j] = nil
			head--
			m.order[head] = live
		}
	}
	m.order = m.order[head:]
}

// Get returns a retained job by id.
func (m *Manager[V]) Get(id string) (*Handle[V], bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.jobs[id]
	return h, ok
}

// Jobs returns all retained handles in submission order.
func (m *Manager[V]) Jobs() []*Handle[V] {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.order)
}

// Stats snapshots the counters.
func (m *Manager[V]) Stats() Stats {
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
func (m *Manager[V]) completeOne() {
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
func (m *Manager[V]) DrainRate() float64 {
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
func (m *Manager[V]) RetryAfter() time.Duration {
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

func (m *Manager[V]) worker() {
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
func (m *Manager[V]) invoke(h *Handle[V]) (err error) {
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
func (m *Manager[V]) Shutdown(ctx context.Context) error {
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
