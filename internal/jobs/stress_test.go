package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStatsConsistentUnderChurn hammers one manager with concurrent
// Submit, Cancel, and a racing Shutdown, then checks the accounting
// invariants that the serve layer's Retry-After and the chaos suite
// lean on: every admission is eventually completed, rejections are
// counted, and a drained manager holds no work.
func TestStatsConsistentUnderChurn(t *testing.T) {
	m := New[any](Config{QueueDepth: 8, Workers: 4})
	var accepted atomic.Int64
	var rejected atomic.Int64
	var handles sync.Map

	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				// Drawn here, not inside the body: the job runs on a
				// worker goroutine and rand.Rand is not concurrency-safe.
				nap := time.Duration(r.Intn(200)) * time.Microsecond
				h, err := m.Submit(fmt.Sprintf("g%d-%d", g, i), nil, func(ctx context.Context, _ int) error {
					select {
					case <-time.After(nap):
						return nil
					case <-ctx.Done():
						return ctx.Err()
					}
				})
				switch {
				case err == nil:
					accepted.Add(1)
					handles.Store(h.ID(), h)
					if r.Intn(4) == 0 {
						h.Cancel()
					}
				case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShutdown):
					rejected.Add(1)
				default:
					t.Errorf("unexpected submit error: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	st := m.Stats()
	if st.Submitted != accepted.Load() {
		t.Fatalf("Submitted = %d, accepted = %d", st.Submitted, accepted.Load())
	}
	if st.Rejected != rejected.Load() {
		t.Fatalf("Rejected = %d, observed %d", st.Rejected, rejected.Load())
	}
	if st.Completed != st.Submitted {
		t.Fatalf("Completed = %d != Submitted = %d: a job was lost", st.Completed, st.Submitted)
	}
	if st.Running != 0 || st.Queued != 0 {
		t.Fatalf("drained manager still reports running=%d queued=%d", st.Running, st.Queued)
	}
	if st.Depth != 8 {
		t.Fatalf("Depth = %d, want the configured queue capacity 8", st.Depth)
	}
	// Every accepted handle must be terminal.
	handles.Range(func(_, v any) bool {
		h := v.(*Handle[any])
		if s, _ := h.State(); !s.Terminal() {
			t.Fatalf("job %s not terminal after shutdown: %s", h.ID(), s)
		}
		return true
	})
}

// TestDrainRateAndRetryAfter pins the load gauges: completions move
// the drain rate off zero, and RetryAfter stays in its documented
// [1s, 60s] envelope with the conservative 2s fallback before any
// signal exists.
func TestDrainRateAndRetryAfter(t *testing.T) {
	m := New[any](Config{QueueDepth: 4, Workers: 2})
	defer m.Shutdown(context.Background())

	if ra := m.RetryAfter(); ra != 2*time.Second {
		t.Fatalf("RetryAfter with no drain history = %v, want 2s", ra)
	}
	if rate := m.DrainRate(); rate != 0 {
		t.Fatalf("DrainRate with no completions = %v, want 0", rate)
	}

	var hs []*Handle[any]
	for i := 0; i < 6; i++ {
		h, err := m.Submit("quick", nil, func(ctx context.Context, _ int) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
		h.Wait(context.Background())
	}
	if rate := m.DrainRate(); rate <= 0 {
		t.Fatalf("DrainRate after %d completions = %v, want > 0", len(hs), rate)
	}
	if ra := m.RetryAfter(); ra < time.Second || ra > 60*time.Second {
		t.Fatalf("RetryAfter = %v outside [1s, 60s]", ra)
	}
	st := m.Stats()
	if st.DrainPerSec <= 0 {
		t.Fatalf("Stats.DrainPerSec = %v, want > 0", st.DrainPerSec)
	}
}

// TestResubmitKeepsID pins the replay contract: a resubmitted job
// lives under its original id, Get finds it there, and the id counter
// skips past replayed ids so fresh submissions never collide.
func TestResubmitKeepsID(t *testing.T) {
	m := New[any](Config{QueueDepth: 8, Workers: 1})
	defer m.Shutdown(context.Background())

	h, err := m.Resubmit("j7", "replayed", nil, func(ctx context.Context, _ int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() != "j7" {
		t.Fatalf("resubmitted id = %s, want j7", h.ID())
	}
	if got, ok := m.Get("j7"); !ok || got != h {
		t.Fatal("Get(j7) does not find the resubmitted job")
	}
	if err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Fresh ids continue past the replayed one.
	h2, err := m.Submit("fresh", nil, func(ctx context.Context, _ int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if h2.ID() != "j8" {
		t.Fatalf("fresh id after replaying j7 = %s, want j8", h2.ID())
	}

	// A live id cannot be replayed twice.
	if _, err := m.Resubmit("j8", "dup", nil, func(ctx context.Context, _ int) error { return nil }); err == nil {
		t.Fatal("Resubmit over a live id succeeded")
	}
	if _, err := m.Resubmit("", "anon", nil, func(ctx context.Context, _ int) error { return nil }); err == nil {
		t.Fatal("Resubmit with an empty id succeeded")
	}
}
