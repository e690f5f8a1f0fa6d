package main

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"strings"
	"sync"
	"time"

	"sinrcast/internal/exp"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sinr"
	"sinrcast/internal/stats"
)

// trialSpans is an exp.TrialCheckpoint that stores nothing: Load opens
// a trial span and Store closes it. It costs one gob encode per trial,
// so only traced phases install it.
type trialSpans struct {
	tr     *tracer
	parent int
	mu     sync.Mutex
	open   map[[3]uint64]time.Time
	closed []interval
}

func (c *trialSpans) Load(expID, point uint64, trial int) ([]byte, bool) {
	c.mu.Lock()
	c.open[[3]uint64{expID, point, uint64(trial)}] = time.Now()
	c.mu.Unlock()
	return nil, false
}

func (c *trialSpans) Store(expID, point uint64, trial int, _ []byte) {
	end := time.Now()
	key := [3]uint64{expID, point, uint64(trial)}
	c.mu.Lock()
	start, ok := c.open[key]
	delete(c.open, key)
	if ok {
		c.closed = append(c.closed, interval{start, end})
	}
	c.mu.Unlock()
	if ok {
		c.tr.add(c.parent, "exp.trial", "", start, end)
	}
}

// expSetup generates every family's deployment at the matrix size
// (n = 16 at scale 0.5) and takes its diameter: the per-row work E13
// does outside its trials.
func expSetup(cfg exp.Config) error {
	for _, f := range scenario.Families() {
		net, err := scenario.Generate(f.SpecForN(16), sinr.DefaultParams(), cfg.Seed)
		if err != nil {
			return err
		}
		net.Diameter()
	}
	return nil
}

// tableCells counts the protocol cells of a rendered E13 table and
// those rendered "(k!)" (k trials left a station uninformed) or "fail"
// (every trial did, or a trial erred).
func tableCells(rows [][]string) (cells, incomplete int) {
	for _, row := range rows {
		for _, cell := range row[3:] {
			cells++
			if cell == "fail" || strings.HasSuffix(cell, "!)") {
				incomplete++
			}
		}
	}
	return
}

func runExpMatrix(seed uint64, _ string, phases []*phase) ([]*outcome, float64, error) {
	// One set-up is the deployment work of sixteen tables; it is timed
	// seven times and the median reported.
	var setups []float64
	for i := 0; i < 7; i++ {
		t0 := time.Now()
		for t := 0; t < 16; t++ {
			if err := expSetup(expConfig(seed, t)); err != nil {
				return nil, 0, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var firstDigest [sha256.Size]byte
	tables := 0
	var outs []*outcome
	for _, ph := range phases {
		o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
		outs = append(outs, o)
		var tableMs, trialMs []float64
		var wall, busy, outside time.Duration
		trials := 0
		ph.start()
		for first := true; first || time.Now().Before(ph.deadline); first = false {
			run := expConfig(seed, tables)
			var spans *trialSpans
			root := -1
			if ph.tr != nil {
				root = ph.tr.add(-1, "exp.E13ProtocolMatrix", "", time.Now(), time.Now())
				spans = &trialSpans{tr: ph.tr, parent: root, open: map[[3]uint64]time.Time{}}
				run.Checkpoint = spans
			}
			t0 := time.Now()
			tb, err := exp.E13ProtocolMatrix(run)
			d := time.Since(t0)
			if err != nil {
				return nil, 0, err
			}
			cells, inc := tableCells(tb.Rows)
			o.attempted += cells
			o.incomplete += inc
			if tables == 0 {
				if firstDigest, err = tableDigest(tb); err != nil {
					return nil, 0, err
				}
			}
			tables++
			tableMs = append(tableMs, ms(d))
			if spans != nil {
				ph.tr.end(root, time.Now())
				if len(spans.open) > 0 {
					o.notef("%d E13 trials opened a span that Store never closed", len(spans.open))
				}
				wall += d
				trials += len(spans.closed)
				outside += d - unionLen(spans.closed)
				for _, iv := range spans.closed {
					busy += iv.end.Sub(iv.start)
					trialMs = append(trialMs, ms(iv.end.Sub(iv.start)))
				}
			}
		}
		o.e2e["job_p50_ms"] = quantile(tableMs, 0.5)
		o.e2e["job_p99_ms"] = tail(tableMs)
		o.e2e["jobs_per_s"] = 1000 / o.e2e["job_p50_ms"]
		o.notef("table_s %.4f s (median of %d E13 tables, 11 protocols × 13 families, 2 trials, n=16)", quantile(tableMs, 0.5)/1000, len(tableMs))
		if ph.tr != nil {
			workers := runtime.GOMAXPROCS(0) // exp.Config.Workers left at its default
			n := float64(len(tableMs))
			o.layers["exp.table_s"] = quantile(tableMs, 0.5) / 1000
			o.layers["exp.trial_ms.p50"] = quantile(trialMs, 0.5)
			o.layers["exp.trial_ms.p99"] = tail(trialMs)
			o.layers["exp.trials"] = float64(trials) / n
			o.layers["exp.worker_busy_share"] = busy.Seconds() / (float64(workers) * wall.Seconds())
			o.layers["exp.outside_trials_s"] = outside.Seconds() / n
			o.layers["exp.incomplete_cells"] = float64(o.incomplete) / n
		}
	}

	// Repeat table 0 untimed: its seed must reproduce its digest.
	tb, err := exp.E13ProtocolMatrix(expConfig(seed, 0))
	if err != nil {
		return nil, 0, err
	}
	digest, err := tableDigest(tb)
	if err != nil {
		return nil, 0, err
	}
	if digest != firstDigest {
		last := outs[len(outs)-1]
		cells, _ := tableCells(tb.Rows)
		last.failed += cells
		last.problemf("E13 table 0 repeated with digest %x, first run gave %x", digest[:8], firstDigest[:8])
	}
	return outs, quantile(setups, 0.5), nil
}

// tableDigest hashes a table's CSV rendering.
func tableDigest(tb *stats.Table) ([sha256.Size]byte, error) {
	var csv bytes.Buffer
	if err := tb.WriteCSV(&csv); err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(csv.Bytes()), nil
}
