package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans of one daemon job share Job;
// Parent is the index of the causing span, or -1.
type span struct {
	Name    string `json:"name"`
	Job     string `json:"job,omitempty"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them once the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its index for use as a parent.
func (t *tracer) add(parent int, name, job string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, job, parent, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

// end sets the end of span i, for a parent opened before its
// children's indices were known.
func (t *tracer) end(i int, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].EndNs = at.Sub(t.epoch).Nanoseconds()
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// interval is a closed-open time range.
type interval struct{ start, end time.Time }

// unionLen is the total length covered by the intervals, counting
// overlaps once. It is how self time is computed when spans overlap,
// as a job's run span overlaps its submit span.
func unionLen(iv []interval) time.Duration {
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	var cur interval
	open := false
	for _, x := range s {
		if !x.end.After(x.start) {
			continue
		}
		if open && !x.start.After(cur.end) {
			if x.end.After(cur.end) {
				cur.end = x.end
			}
			continue
		}
		if open {
			total += cur.end.Sub(cur.start)
		}
		cur, open = x, true
	}
	if open {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tail is the 99th percentile, lowered to the highest percentile that
// still has at least ten samples beyond it, and never below the
// median: a percentile with fewer samples beyond it is noise.
func tail(xs []float64) float64 {
	q := 1 - 10/float64(max(len(xs), 1))
	return quantile(xs, min(max(q, 0.5), 0.99))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
