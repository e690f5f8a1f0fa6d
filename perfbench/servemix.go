package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sinrcast/internal/jobs"
	"sinrcast/internal/serve"
)

// serveClients is the closed-loop client count: each client sends its
// next job only after reading the previous one's result.
const serveClients = 2

// daemon is an in-process sinrcastd with the journal on, behind a
// loopback HTTP listener.
type daemon struct {
	dir    string
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

func openDaemon(scratch string) (*daemon, error) {
	dir, err := os.MkdirTemp(scratch, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.Open(serve.Config{JournalPath: filepath.Join(dir, "journal.ndjson")})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	<-srv.ReplayDone()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		dir:    dir,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1), // Serve's one return value
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
			MaxConnsPerHost:     serveClients,
			DisableCompression:  true,
		}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close drains the daemon and checks the teardown: a forced drain, a
// journal error, dropped journal records, unreconciled job counts or a
// journal left on disk are all errors.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if err := d.srv.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("forced drain: %w", err))
	}
	if st, err := d.cacheStats(); err != nil {
		errs = append(errs, err)
	} else if st.Jobs.Submitted != st.Jobs.Completed+st.Jobs.Rejected {
		errs = append(errs, fmt.Errorf("job stats do not reconcile: submitted %d != completed %d + rejected %d",
			st.Jobs.Submitted, st.Jobs.Completed, st.Jobs.Rejected))
	}
	if err := d.srv.Journal().Err(); err != nil {
		errs = append(errs, fmt.Errorf("journal error: %w", err))
	}
	if n := d.srv.Journal().Dropped(); n != 0 {
		errs = append(errs, fmt.Errorf("journal dropped %d records", n))
	}
	if err := d.hs.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("http shutdown: %w", err))
	}
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, fmt.Errorf("http serve: %w", err))
	}
	d.client.CloseIdleConnections()
	if err := os.RemoveAll(d.dir); err != nil {
		errs = append(errs, err)
	} else if _, err := os.Stat(d.dir); !errors.Is(err, os.ErrNotExist) {
		errs = append(errs, fmt.Errorf("journal directory %s still present", d.dir))
	}
	return errors.Join(errs...)
}

// cacheStatsJSON is the /v1/cache body.
type cacheStatsJSON struct {
	Cache serve.CacheStats `json:"cache"`
	Jobs  jobs.Stats       `json:"jobs"`
}

func (d *daemon) cacheStats() (cacheStatsJSON, error) {
	var out cacheStatsJSON
	return out, d.getJSON("/v1/cache", &out)
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// jobSample is one job as a client saw it, plus the daemon's own
// created/started/finished stamps when traced.
type jobSample struct {
	class, key, id             string
	sent, accepted, read       time.Time
	created, started, finished time.Time
	err                        error
	digest                     [sha256.Size]byte
}

// do submits one job and reads its CSV result.
func (d *daemon) do(j serveJob, traced bool) jobSample {
	s := jobSample{class: j.class, key: jobKey(j.req)}
	body, err := json.Marshal(j.req)
	if err != nil {
		s.err = err
		return s
	}
	s.sent = time.Now()
	resp, err := d.client.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	var acc struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&acc)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.accepted = time.Now()
	if resp.StatusCode != http.StatusAccepted {
		s.err = fmt.Errorf("submit: %s", resp.Status)
		return s
	}
	if err != nil {
		s.err = fmt.Errorf("submit: %w", err)
		return s
	}
	s.id = acc.ID
	resp, err = d.client.Get(d.base + "/v1/jobs/" + acc.ID + "/result?format=csv&wait=1")
	if err != nil {
		s.err = err
		return s
	}
	csv, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.read = time.Now()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("result: %s: %s", resp.Status, bytes.TrimSpace(csv))
	}
	if err != nil {
		s.err = err
		return s
	}
	s.digest = sha256.Sum256(csv)
	if traced {
		var st struct{ Created, Started, Finished string }
		if err := d.getJSON("/v1/jobs/"+acc.ID, &st); err != nil {
			s.err = err
			return s
		}
		for _, f := range []struct {
			dst *time.Time
			src string
		}{{&s.created, st.Created}, {&s.started, st.Started}, {&s.finished, st.Finished}} {
			if *f.dst, err = time.Parse(time.RFC3339Nano, f.src); err != nil {
				s.err = fmt.Errorf("status of %s: %w", acc.ID, err)
				return s
			}
		}
	}
	return s
}

// jobKey identifies the inputs that determine a job's CSV.
func jobKey(r serve.JobRequest) string {
	return fmt.Sprintf("E%d|%s|%s|%d|%d", r.Experiment, r.Scenario, r.Protocol, r.Seed, r.Trials)
}

// refs holds the first CSV digest of every job key seen in the
// process; later jobs with the key must match it byte for byte, which
// checks cold against warm cache results from outside the daemon.
type refs struct {
	mu sync.Mutex
	m  map[string][sha256.Size]byte
}

func (r *refs) check(s jobSample) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	want, ok := r.m[s.key]
	if !ok {
		r.m[s.key] = s.digest
		return nil
	}
	if want != s.digest {
		return fmt.Errorf("job %s (%s) CSV differs from the first job with the same inputs", s.id, s.key)
	}
	return nil
}

func runServeMix(seed uint64, scratch string, phases []*phase) ([]*outcome, float64, error) {
	ref := &refs{m: map[string][sha256.Size]byte{}}
	var setups []float64
	var d *daemon
	// Set up five times and keep the last daemon: every incarnation is
	// opened and warmed from scratch, and its warm-up CSVs must match
	// the previous incarnations'.
	for i := 0; i < 5; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, 0, fmt.Errorf("set-up teardown: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if d, err = openDaemon(scratch); err != nil {
			return nil, 0, err
		}
		for _, j := range serveWarmup(seed) {
			s := d.do(j, false)
			if s.err == nil {
				s.err = ref.check(s)
			}
			if s.err != nil {
				d.close()
				return nil, 0, fmt.Errorf("warm-up job %s: %w", s.key, s.err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var next atomic.Int64
	var outs []*outcome
	for _, ph := range phases {
		o, err := servePhase(d, seed, ph, &next, ref)
		if err != nil {
			d.close()
			return nil, 0, err
		}
		outs = append(outs, o)
	}
	if err := d.close(); err != nil {
		last := outs[len(outs)-1]
		last.problemf("teardown: %v", err)
	}
	return outs, quantile(setups, 0.5), nil
}

// servePhase runs the closed loop until the phase deadline.
func servePhase(d *daemon, seed uint64, ph *phase, next *atomic.Int64, ref *refs) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	traced := ph.tr != nil
	before, err := d.cacheStats()
	if err != nil {
		return nil, err
	}
	syncs0 := d.srv.Journal().Syncs()

	var mu sync.Mutex
	var samples []jobSample
	var wg sync.WaitGroup
	ph.start()
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(ph.deadline) {
				j := serveJobAt(seed, int(next.Add(1)-1))
				s := d.do(j, traced)
				if s.err == nil {
					s.err = ref.check(s)
				}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)

	after, err := d.cacheStats()
	if err != nil {
		return nil, err
	}
	var jobMs []float64
	classMs := map[string][]float64{}
	var submitMs, waitMs, runMs, resultMs []float64
	var covered, spanned time.Duration
	for _, s := range samples {
		o.attempted++
		if s.err != nil {
			o.failed++
			o.notef("job failed: %v", s.err)
			continue
		}
		lat := s.read.Sub(s.sent)
		jobMs = append(jobMs, ms(lat))
		classMs[s.class] = append(classMs[s.class], ms(lat))
		if !traced {
			continue
		}
		submitMs = append(submitMs, ms(s.accepted.Sub(s.sent)))
		waitMs = append(waitMs, ms(s.started.Sub(s.created)))
		runMs = append(runMs, ms(s.finished.Sub(s.started)))
		resultMs = append(resultMs, ms(s.read.Sub(s.finished)))
		// The run span starts at dequeue, which can precede the end of
		// the submit span (the accept fsync); the union counts the
		// overlap once.
		children := []interval{{s.sent, s.accepted}, {s.created, s.started}, {s.started, s.finished}, {s.finished, s.read}}
		covered += unionLen(children)
		spanned += lat
		root := ph.tr.add(-1, "serve.job", s.id, s.sent, s.read)
		for k, name := range []string{"serve.submit", "jobs.queue_wait", "jobs.run", "serve.result"} {
			ph.tr.add(root, name, s.id, children[k].start, children[k].end)
		}
	}
	if len(jobMs) == 0 {
		return nil, errors.New("serve-mix: no job completed")
	}
	o.e2e["job_p50_ms"] = quantile(jobMs, 0.5)
	o.e2e["job_p99_ms"] = tail(jobMs)
	o.e2e["jobs_per_s"] = float64(len(jobMs)) / elapsed.Seconds()
	o.notef("jobs %d completed of %d in %.3f s by %d closed-loop clients (hit %d, miss %d, exp %d)",
		len(jobMs), len(samples), elapsed.Seconds(), serveClients,
		len(classMs[classHit]), len(classMs[classMiss]), len(classMs[classExp]))
	o.notef("job_p50_ms %.4f, job_p99_ms %.4f over %d jobs", quantile(jobMs, 0.5), tail(jobMs), len(jobMs))
	if traced {
		dc := after.Cache
		hits, misses := dc.Hits-before.Cache.Hits, dc.Misses-before.Cache.Misses
		o.layers["serve.submit_ms.p50"] = quantile(submitMs, 0.5)
		o.layers["serve.submit_ms.p99"] = quantile(submitMs, 0.99)
		o.layers["journal.syncs_per_job"] = float64(d.srv.Journal().Syncs()-syncs0) / float64(len(samples))
		o.layers["jobs.queue_wait_ms.p50"] = quantile(waitMs, 0.5)
		o.layers["jobs.queue_wait_ms.p99"] = quantile(waitMs, 0.99)
		o.layers["jobs.run_ms.p50"] = quantile(runMs, 0.5)
		o.layers["jobs.run_ms.p99"] = quantile(runMs, 0.99)
		o.layers["serve.result_ms.p50"] = quantile(resultMs, 0.5)
		o.layers["cache.hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
		o.layers["cache.misses"] = float64(misses)
		o.layers["cache.evictions"] = float64(dc.Evictions - before.Cache.Evictions)
		o.layers["serve.job_ms.p99"] = tail(jobMs)
		o.layers["serve.job_ms.hit.p50"] = quantile(classMs[classHit], 0.5)
		o.layers["serve.job_ms.miss.p50"] = quantile(classMs[classMiss], 0.5)
		o.layers["serve.job_ms.exp.p50"] = quantile(classMs[classExp], 0.5)
		o.layers["jobs.rejected"] = float64(after.Jobs.Rejected - before.Jobs.Rejected)
		o.layers["serve.span_cover_share"] = covered.Seconds() / spanned.Seconds()
		o.notef("spans cover %.4f of job latency", covered.Seconds()/spanned.Seconds())
	}
	return o, nil
}
