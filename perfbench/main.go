// Command perfbench is the repository benchmark. It runs one named
// workload against the sinrcast library and daemon in a single
// process, checks the workload's outputs, and prints one JSON result
// line:
//
//	go run . --workload serve-mix --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics,
// taken from spans and counters recorded around calls into each
// layer's public functions, plus the tracing overhead measured against
// an untraced run of the same process. The spans themselves are
// written to <scratch>/trace-<workload>-<seed>.json.
//
// Every input the program receives derives from --seed (see
// inputs.go). README.md maps each per-layer metric to the end-to-end
// metric it should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd is printed by every untraced run, on every workload. A job
// is the unit of work a user of the workload waits for: a daemon job
// (serve-mix), one broadcast of each of the four cases (bcast-solo),
// one E13 table (exp-matrix).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// overheadOf lists the end-to-end metrics whose traced-minus-untraced
// difference a traced run reports as overhead.<name>.
var overheadOf = []string{"job_p50_ms", "job_p99_ms", "jobs_per_s"}

// perLayer is printed by every traced run. A workload that does not
// reach a layer reports 0 for that layer's metrics.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		{"machine.nproc", "count"},
		{"machine.gomaxprocs", "count"},
		{"machine.spin2_ratio", "ratio"},
		{"serve.submit_ms.p50", "ms"},
		{"serve.submit_ms.p99", "ms"},
		{"journal.syncs_per_job", "count"},
		{"jobs.queue_wait_ms.p50", "ms"},
		{"jobs.queue_wait_ms.p99", "ms"},
		{"jobs.run_ms.p50", "ms"},
		{"jobs.run_ms.p99", "ms"},
		{"serve.result_ms.p50", "ms"},
		{"cache.hit_ratio", "ratio"},
		{"cache.misses", "count"},
		{"cache.evictions", "count"},
		{"serve.job_ms.p99", "ms"},
		{"serve.job_ms.hit.p50", "ms"},
		{"serve.job_ms.miss.p50", "ms"},
		{"serve.job_ms.exp.p50", "ms"},
		{"jobs.rejected", "count"},
		{"serve.span_cover_share", "ratio"},
		{"bcast.bcast_s", "s"},
		{"bcast.rounds_per_s", "1/s"},
		{"bcast.incomplete", "count"},
	}
	for _, c := range bcastCases {
		for _, s := range []metricSpec{
			{"sinr.resolve_ns_per_round", "ns"},
			{"sinr.resolve_share", "ratio"},
			{"sim.loop_ns_per_round", "ns"},
			{"sinr.resolve_calls", "count"},
			{"sinr.resolvefor_calls", "count"},
			{"sinr.receivers_per_call", "count"},
			{"sim.rounds", "count"},
			{"sim.transmissions", "count"},
			{"sim.receptions", "count"},
			{"scenario.generate_s", "s"},
			{"sinr.build_s", "s"},
		} {
			m = append(m, metricSpec{s.name + "." + c.Name, s.unit})
		}
	}
	m = append(m,
		metricSpec{"exp.table_s", "s"},
		metricSpec{"exp.trial_ms.p50", "ms"},
		metricSpec{"exp.trial_ms.p99", "ms"},
		metricSpec{"exp.trials", "count"},
		metricSpec{"exp.worker_busy_share", "ratio"},
		metricSpec{"exp.outside_trials_s", "s"},
		metricSpec{"exp.incomplete_cells", "count"},
	)
	for _, name := range overheadOf {
		unit := "ms"
		if name == "jobs_per_s" {
			unit = "1/s"
		}
		m = append(m, metricSpec{"overhead." + name, unit})
	}
	return m
}

// phase is one measured stretch of a workload.
type phase struct {
	budget   time.Duration
	deadline time.Time // set by start
	tr       *tracer   // nil: untraced
}

// outcome is what a workload measured. e2e holds every endToEnd
// metric except peak_rss_mb; layers holds the per-layer metrics of a
// traced phase. problems lists output checks that failed; each makes
// the run incorrect.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
	// incomplete counts attempts whose output is a correct, reproducible
	// record of a randomized protocol not informing every station: a
	// measured result, not a failed operation.
	incomplete int
	problems   []string
	notes      []string // human-readable report lines
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workload runs set-up once, then one untraced phase (trace off) or an
// untraced and a traced phase of half the time each (trace on), then
// tears down. The returned outcomes are in phase order.
type workload func(seed uint64, scratch string, phases []*phase) ([]*outcome, float64, error)

var workloads = map[string]workload{
	"serve-mix":  runServeMix,
	"bcast-solo": runBcastSolo,
	"exp-matrix": runExpMatrix,
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: serve-mix, bcast-solo or exp-matrix")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	scratch := flag.String("scratch", ".bench_build/run", "directory for the daemon journal and span dumps")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *scratch); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, scratch string) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	cal := calibrate()
	fmt.Printf("# machine nproc=%d gomaxprocs=%d spin1_ms=%.1f spin2_ratio=%.3f (2-goroutine over 1-goroutine spin time; 1 = perfect parallelism, 2 = none)\n",
		cal.nproc, cal.gomaxprocs, ms(cal.spin1), cal.spin2)

	budget := time.Duration(seconds) * time.Second
	phases := []*phase{{budget: budget}}
	if trace == 1 {
		phases = []*phase{{budget: budget / 2}, {budget: budget / 2, tr: newTracer()}}
	}
	steal0, cpu0 := stealSeconds(), cpuSeconds()
	outs, setup, err := wl(seed, scratch, phases)
	if err != nil {
		return err
	}
	fmt.Printf("# machine steal_s=%.2f process_cpu_s=%.2f during the workload\n", stealSeconds()-steal0, cpuSeconds()-cpu0)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	incomplete := 0
	for _, o := range outs {
		res.Attempted += o.attempted
		res.Failed += o.failed
		incomplete += o.incomplete
		for _, p := range o.problems {
			res.Correct = false
			fmt.Printf("# check failed: %s\n", p)
		}
	}
	last := outs[len(outs)-1]
	last.e2e["setup_s"] = setup
	last.e2e["peak_rss_mb"] = rss
	for _, line := range last.notes {
		fmt.Printf("# %s\n", line)
	}
	fmt.Printf("# failed_ratio %.6f (%d failed + %d incomplete of %d attempted)\n",
		float64(res.Failed+incomplete)/float64(res.Attempted), res.Failed, incomplete, res.Attempted)
	for _, m := range endToEnd {
		fmt.Printf("# %s %g %s\n", m.name, last.e2e[m.name], m.unit)
	}

	if trace == 0 {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{last.e2e[m.name], m.unit}
		}
	} else {
		layers := last.layers
		layers["machine.nproc"] = float64(cal.nproc)
		layers["machine.gomaxprocs"] = float64(cal.gomaxprocs)
		layers["machine.spin2_ratio"] = cal.spin2
		for _, m := range overheadOf {
			layers["overhead."+m] = last.e2e[m] - outs[0].e2e[m]
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
		path := filepath.Join(scratch, fmt.Sprintf("trace-%s-%d.json", name, seed))
		if err := phases[len(phases)-1].tr.write(path); err != nil {
			return err
		}
		fmt.Printf("# spans written to %s\n", path)
		for k := range layers {
			if _, ok := res.Metrics[k]; !ok {
				return fmt.Errorf("layer metric %q is not in the catalogue", k)
			}
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// start arms a phase: its deadline is its budget from now.
func (p *phase) start() { p.deadline = time.Now().Add(p.budget) }

// calibration describes the machine that produced a report, so a later
// parallelism claim can be judged against it.
type calibration struct {
	nproc, gomaxprocs int
	spin1             time.Duration
	spin2             float64
}

// spinSink keeps the calibration spin loop from being optimized away.
var spinSink atomic.Uint64

// calibrate times a fixed spin loop on one goroutine, then on two at
// once; spin2 is the ratio of the two wall times.
func calibrate() calibration {
	spin := func() {
		x := uint64(1)
		for i := 0; i < 40_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		spinSink.Store(x)
	}
	timeIt := func(g int) time.Duration {
		t0 := time.Now()
		done := make(chan struct{}, g) // one send per goroutine
		for i := 0; i < g; i++ {
			go func() { spin(); done <- struct{}{} }()
		}
		for i := 0; i < g; i++ {
			<-done
		}
		return time.Since(t0)
	}
	one := timeIt(1)
	two := timeIt(2)
	return calibration{runtime.NumCPU(), runtime.GOMAXPROCS(0), one, float64(two) / float64(one)}
}

// stealSeconds is the machine's total CPU steal time from /proc/stat
// (0 where unavailable): time a hypervisor ran someone else on this
// machine's CPUs.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / 100 // USER_HZ
}

// cpuSeconds is this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB reads the process high-water resident set size.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
