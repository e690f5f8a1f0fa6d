package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestSubmitRunWait(t *testing.T) {
	m := New[any](Config{Workers: 2, QueueDepth: 4})
	defer m.Shutdown(context.Background())
	var gotWorkers int
	h, err := m.Submit("t", nil, func(ctx context.Context, w int) error {
		gotWorkers = w
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	if s, _ := h.State(); s != StateDone {
		t.Fatalf("state %s, want done", s)
	}
	if gotWorkers != m.Config().EngineWorkersPerJob() {
		t.Fatalf("engine workers %d, want %d", gotWorkers, m.Config().EngineWorkersPerJob())
	}
	if st := m.Stats(); st.Submitted != 1 || st.Completed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEngineWorkerBudgetSplit(t *testing.T) {
	cases := []struct {
		cfg  Config
		want int
	}{
		{Config{Workers: 4, EngineWorkers: 8}, 2},
		{Config{Workers: 4, EngineWorkers: 3}, 1}, // floor at 1
		{Config{Workers: 1, EngineWorkers: 16}, 16},
	}
	for _, c := range cases {
		if got := c.cfg.EngineWorkersPerJob(); got != c.want {
			t.Errorf("%+v: per-job share %d, want %d", c.cfg, got, c.want)
		}
	}
}

// gatedJob blocks until released, recording that it started.
type gatedJob struct {
	started chan struct{}
	release chan struct{}
}

func newGatedJob() *gatedJob {
	return &gatedJob{started: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedJob) run(ctx context.Context, _ int) error {
	close(g.started)
	select {
	case <-g.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestQueueFullBackpressure pins the admission contract: with one busy
// worker and a depth-2 queue, the fourth submission is rejected
// immediately with ErrQueueFull — never blocked, never buffered.
func TestQueueFullBackpressure(t *testing.T) {
	m := New[any](Config{Workers: 1, QueueDepth: 2})
	defer m.Shutdown(context.Background())
	g := newGatedJob()
	running, err := m.Submit("running", nil, g.run)
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	for i := 0; i < 2; i++ {
		if _, err := m.Submit("queued", nil, func(ctx context.Context, _ int) error { return nil }); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}
	if _, err := m.Submit("overflow", nil, func(ctx context.Context, _ int) error { return nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	if st := m.Stats(); st.Rejected != 1 || st.Queued != 2 {
		t.Fatalf("stats %+v", st)
	}
	close(g.release)
	if err := running.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
}

func TestCancelQueuedNeverRuns(t *testing.T) {
	m := New[any](Config{Workers: 1, QueueDepth: 4})
	defer m.Shutdown(context.Background())
	g := newGatedJob()
	if _, err := m.Submit("running", nil, g.run); err != nil {
		t.Fatal(err)
	}
	<-g.started
	var ran atomic.Bool
	h, err := m.Submit("queued", nil, func(ctx context.Context, _ int) error {
		ran.Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Cancel()
	if err := h.Wait(waitCtx(t)); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait: %v, want context.Canceled", err)
	}
	if s, _ := h.State(); s != StateCanceled {
		t.Fatalf("state %s, want canceled", s)
	}
	close(g.release)
	// Drain the worker past the cancelled entry; it must skip it.
	h2, err := m.Submit("after", nil, func(ctx context.Context, _ int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	if ran.Load() {
		t.Fatal("cancelled queued job ran")
	}
}

func TestCancelRunning(t *testing.T) {
	m := New[any](Config{Workers: 1, QueueDepth: 4})
	defer m.Shutdown(context.Background())
	g := newGatedJob()
	h, err := m.Submit("running", nil, g.run)
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	h.Cancel()
	if err := h.Wait(waitCtx(t)); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait: %v, want context.Canceled", err)
	}
	if s, _ := h.State(); s != StateCanceled {
		t.Fatalf("state %s, want canceled", s)
	}
}

// TestGracefulShutdown is the drain contract: in-flight jobs complete,
// queued jobs fail with ErrShutdown without ever running, and new
// submissions are rejected.
func TestGracefulShutdown(t *testing.T) {
	m := New[any](Config{Workers: 2, QueueDepth: 8})
	g1, g2 := newGatedJob(), newGatedJob()
	r1, err := m.Submit("run1", nil, g1.run)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Submit("run2", nil, g2.run)
	if err != nil {
		t.Fatal(err)
	}
	<-g1.started
	<-g2.started
	var ran atomic.Int32
	var queued []*Handle[any]
	for i := 0; i < 4; i++ {
		h, err := m.Submit(fmt.Sprintf("q%d", i), nil, func(ctx context.Context, _ int) error {
			ran.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, h)
	}

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- m.Shutdown(context.Background()) }()

	// Queued jobs fail with the clean shutdown error before the
	// in-flight jobs have even finished.
	for i, h := range queued {
		if err := h.Wait(waitCtx(t)); !errors.Is(err, ErrShutdown) {
			t.Fatalf("queued job %d: err %v, want ErrShutdown", i, err)
		}
		if s, _ := h.State(); s != StateFailed {
			t.Fatalf("queued job %d: state %s, want failed", i, s)
		}
	}
	if ran.Load() != 0 {
		t.Fatalf("%d queued jobs ran during shutdown", ran.Load())
	}

	// New submissions are rejected while draining.
	if _, err := m.Submit("late", nil, func(ctx context.Context, _ int) error { return nil }); !errors.Is(err, ErrShutdown) {
		t.Fatalf("late submit: err %v, want ErrShutdown", err)
	}

	// In-flight jobs drain to completion.
	close(g1.release)
	close(g2.release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	for i, h := range []*Handle[any]{r1, r2} {
		if s, _ := h.State(); s != StateDone {
			t.Fatalf("in-flight job %d: state %s, want done", i, s)
		}
	}
}

// TestShutdownDeadlineForcesCancel: when the drain context expires,
// running jobs are cancelled through their own contexts and Shutdown
// still waits for them to unwind.
func TestShutdownDeadlineForcesCancel(t *testing.T) {
	m := New[any](Config{Workers: 1, QueueDepth: 2})
	g := newGatedJob()
	h, err := m.Submit("stuck", nil, g.run)
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown returned %v, want DeadlineExceeded", err)
	}
	if s, _ := h.State(); s != StateCanceled {
		t.Fatalf("stuck job state %s, want canceled", s)
	}
}

func TestPanicIsolation(t *testing.T) {
	m := New[any](Config{Workers: 1, QueueDepth: 4})
	defer m.Shutdown(context.Background())
	h, err := m.Submit("boom", nil, func(ctx context.Context, _ int) error { panic("boom") })
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(waitCtx(t)); err == nil {
		t.Fatal("panicking job reported success")
	}
	if s, _ := h.State(); s != StateFailed {
		t.Fatalf("state %s, want failed", s)
	}
	// The worker survived; the next job runs.
	h2, err := m.Submit("after", nil, func(ctx context.Context, _ int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSubmitWaitCancel hammers the manager from many
// goroutines — the race detector's food (the CI race job covers this
// package).
func TestConcurrentSubmitWaitCancel(t *testing.T) {
	m := New[any](Config{Workers: 4, QueueDepth: 256, EngineWorkers: 4})
	defer m.Shutdown(context.Background())
	var wg sync.WaitGroup
	var completed atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				h, err := m.Submit("w", nil, func(ctx context.Context, _ int) error { return nil })
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if g%2 == 0 {
					h.Cancel() // may race completion; both outcomes fine
				}
				h.Wait(waitCtx(t))
				completed.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if completed.Load() == 0 {
		t.Fatal("no jobs completed")
	}
	if _, ok := m.Get("nope"); ok {
		t.Fatal("unknown id resolved")
	}
}

// TestReserveThrough pins the replay id guard: after ReserveThrough("jn")
// no fresh Submit assigns an id at or below jn, lower reservations
// never move the counter backwards, and ids not of the form "jN"
// reserve nothing.
func TestReserveThrough(t *testing.T) {
	m := New[any](Config{Workers: 1, QueueDepth: 4})
	defer m.Shutdown(context.Background())
	m.ReserveThrough("j41")
	h, err := m.Submit("a", nil, func(ctx context.Context, _ int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() != "j42" {
		t.Fatalf("id after ReserveThrough(j41) = %s, want j42", h.ID())
	}
	for _, id := range []string{"j3", "x99", "99", "j", "j1e3", "J50", ""} {
		m.ReserveThrough(id)
	}
	h2, err := m.Submit("b", nil, func(ctx context.Context, _ int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if h2.ID() != "j43" {
		t.Fatalf("id after lower reservation = %s, want j43", h2.ID())
	}
}

// TestRegisterFailed pins the replay-overflow terminal record: the
// handle is immediately terminal with the given cause, queryable by
// id, occupies no queue slot, reserves its id, and keeps the
// Submitted == Completed drain invariant.
func TestRegisterFailed(t *testing.T) {
	m := New[any](Config{Workers: 1, QueueDepth: 1})
	cause := errors.New("replay: queue full")
	h, err := m.RegisterFailed("j9", "lost", nil, cause)
	if err != nil {
		t.Fatal(err)
	}
	if s, herr := h.State(); s != StateFailed || !errors.Is(herr, cause) {
		t.Fatalf("state %s err %v, want failed with the cause", s, herr)
	}
	select {
	case <-h.Done():
	default:
		t.Fatal("Done channel not closed for a pre-failed handle")
	}
	if err := h.Wait(waitCtx(t)); !errors.Is(err, cause) {
		t.Fatalf("Wait = %v, want the cause", err)
	}
	if got, ok := m.Get("j9"); !ok || got != h {
		t.Fatal("registered handle not queryable by id")
	}
	if _, err := m.RegisterFailed("j9", "dup", nil, cause); err == nil {
		t.Fatal("duplicate id accepted")
	}
	h2, err := m.Submit("next", nil, func(ctx context.Context, _ int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if h2.ID() != "j10" {
		t.Fatalf("fresh id %s did not clear the registered id, want j10", h2.ID())
	}
	if err := m.Shutdown(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Submitted != st.Completed {
		t.Fatalf("Submitted %d != Completed %d after drain", st.Submitted, st.Completed)
	}
}

// TestRetentionPrunesPastLiveHead pins the retention bound: while the
// oldest job (and one a little younger) are held running, finished
// jobs past MaxRetained are still pruned oldest-first. The live jobs
// keep their places, Jobs lists exactly MaxRetained handles in
// submission order, and each carries the value it was submitted with.
// Once the head finishes, it is the next job pruned.
func TestRetentionPrunesPastLiveHead(t *testing.T) {
	m := New[int](Config{Workers: 3, QueueDepth: 8})
	defer m.Shutdown(context.Background())
	head, mid := newGatedJob(), newGatedJob()
	releaseHead := sync.OnceFunc(func() { close(head.release) })
	// Released before Shutdown, which would wait on the held jobs.
	defer close(mid.release)
	defer releaseHead()
	ctx := waitCtx(t)
	quick := func(value int) {
		t.Helper()
		h, err := m.Submit("quick", value, func(ctx context.Context, _ int) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	held := func(value int, g *gatedJob) *Handle[int] {
		t.Helper()
		h, err := m.Submit("held", value, g.run)
		if err != nil {
			t.Fatal(err)
		}
		<-g.started
		return h
	}

	// Values follow submission order: 0 is the head, 1…3 quick, 4 the
	// held middle job, then the rest quick.
	hHead := held(0, head)
	for v := 1; v <= 3; v++ {
		quick(v)
	}
	hMid := held(4, mid)
	const total = MaxRetained + 500
	for v := 5; v < total; v++ {
		quick(v)
	}
	retained := m.Jobs()
	if len(retained) != MaxRetained {
		t.Fatalf("%d jobs retained, want MaxRetained = %d", len(retained), MaxRetained)
	}
	if retained[0] != hHead || retained[1] != hMid {
		t.Fatalf("Jobs() starts %s, %s; want the live jobs %s, %s",
			retained[0].ID(), retained[1].ID(), hHead.ID(), hMid.ID())
	}
	// Every finished job older than the newest MaxRetained-2 is gone.
	firstKept := total - (MaxRetained - 2)
	for i, h := range retained[2:] {
		if want := firstKept + i; h.Value() != want {
			t.Fatalf("Jobs()[%d] carries value %d, want %d", i+2, h.Value(), want)
		}
	}
	for v := 1; v < firstKept; v++ {
		if v == 4 {
			continue
		}
		// Value v was submitted as j(v+1).
		if _, ok := m.Get(fmt.Sprintf("j%d", v+1)); ok {
			t.Fatalf("finished job j%d still retained past MaxRetained", v+1)
		}
	}

	releaseHead()
	if err := hHead.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	quick(total)
	if _, ok := m.Get(hHead.ID()); ok {
		t.Fatal("finished head job not pruned by the next admission")
	}
	retained = m.Jobs()
	if len(retained) != MaxRetained || retained[0] != hMid || retained[len(retained)-1].Value() != total {
		t.Fatalf("after the head finished: %d retained from %s to value %d; want %d from %s to value %d",
			len(retained), retained[0].ID(), retained[len(retained)-1].Value(), MaxRetained, hMid.ID(), total)
	}
}
