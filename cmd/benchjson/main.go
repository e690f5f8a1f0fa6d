// Command benchjson converts `go test -bench` output into JSON, so
// benchmark trajectories can be committed and diffed machine-readably
// (BENCH_protocols.json at the repository root is generated this way):
//
//	go test -run '^$' -bench Resolve -benchtime 3x -benchmem ./internal/sinr |
//	  benchjson -benchtime 3x
//	(go test -run '^$' -bench Resolve -benchtime 3x -benchmem ./internal/sinr
//	 go test -run '^$' -bench E13 -benchtime 2x -benchmem .) |
//	  benchjson -benchtime 3x > BENCH_protocols.json
//
// It parses the standard bench line format — name, iteration count,
// then value/unit metric pairs (B/op and allocs/op under -benchmem,
// plus custom b.ReportMetric units) — and the goos/goarch/pkg/cpu
// context headers. Multiple package blocks concatenate naturally; each
// benchmark records the package it came from. A FAIL line in the input
// is a hard error (exit 1), so a broken bench cannot serialize as an
// empty success. The -benchtime flag records the effective -benchtime
// the benches ran with so a committed baseline documents its own
// measurement budget.
//
// Baselines in which every entry ran exactly one iteration are
// rejected: single-iteration timings are startup noise, not a
// trajectory (pass a larger -benchtime to go test). A lone 1-iteration
// entry among multi-iteration ones is fine — only the all-1x case is a
// configuration error.
//
// Regression-gate mode compares fresh output against a committed
// baseline instead of emitting JSON:
//
//	go test -run '^$' -bench 'Resolve$/n=16384' -benchtime 3x ./internal/sinr |
//	  benchjson -compare BENCH_protocols.json -filter 'BenchmarkResolve/n=16384' \
//	            -metric ns/round -tolerance 0.15
//
// It exits 1 if any matching benchmark's metric exceeds the baseline by
// more than the tolerance, or if nothing matched (a silent no-op gate
// would be worse than none). A benchmark that appears several times in
// the fresh output (go test -count N) is gated on its fastest run, so
// one run slowed by the machine does not fail the gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"

	"sinrcast/internal/prof"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the full benchmark name including sub-bench path and the
	// -P GOMAXPROCS suffix, e.g. "BenchmarkResolve/n=1024/parallel-8".
	Name string `json:"name"`
	// Pkg is the package the benchmark ran in (from the "pkg:" header).
	Pkg string `json:"pkg,omitempty"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value for every reported pair (ns/op, B/op,
	// allocs/op, and any custom b.ReportMetric units).
	Metrics map[string]float64 `json:"metrics"`
	// NumCPU/Gomaxprocs record the topology of the machine this entry
	// ran on, stamped like the report's. Entries carry their own so a
	// baseline can mix entries recorded on different machines (a few
	// re-recorded gated entries among older ones); zero means "see the
	// report header".
	NumCPU     int `json:"num_cpu,omitempty"`
	Gomaxprocs int `json:"gomaxprocs,omitempty"`
}

// topology returns the entry's recorded topology, falling back to the
// report header's for entries without one.
func (b *Benchmark) topology(rep *Report) (numCPU, gomaxprocs int) {
	if b.NumCPU != 0 {
		return b.NumCPU, b.Gomaxprocs
	}
	return rep.NumCPU, rep.Gomaxprocs
}

// Report is the JSON document: the shared context headers plus every
// benchmark in input order.
type Report struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// NumCPU/Gomaxprocs record the recording machine's
	// parallel topology. benchjson stamps them at serialization time,
	// which describes the bench machine as long as the report is
	// generated on the machine the benches ran on (the
	// pipe-into-benchjson workflow every documented invocation uses).
	// Parallel speedup curves only transfer between machines with the
	// same topology; -compare uses these to skip parallel entries
	// recorded elsewhere. Every entry is stamped too, and an entry's
	// own topology overrides the header's.
	NumCPU     int `json:"num_cpu,omitempty"`
	Gomaxprocs int `json:"gomaxprocs,omitempty"`
	// Benchtime documents the -benchtime the benches ran with (from the
	// -benchtime flag; go test does not echo it into its output).
	Benchtime  string      `json:"benchtime,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// sameTopology reports whether two recorded (num_cpu, gomaxprocs)
// topologies are identical. An unknown topology (num_cpu zero: a
// report predating the fields) is treated as the same, so old
// baselines keep gating everything.
func sameTopology(cpuA, procsA, cpuB, procsB int) bool {
	if cpuA == 0 || cpuB == 0 {
		return true
	}
	return cpuA == cpuB && procsA == procsB
}

// parallelEntry matches benchmark names whose timing depends on the
// machine's parallel topology: the explicit worker-sweep benches and
// the GOMAXPROCS-parallel engine modes.
var parallelEntry = regexp.MustCompile(`/parallel$|/parallel-\d+$|/workers=`)

// parseBench reads `go test -bench` text and returns the report. It
// tolerates unknown chatter lines (PASS, ok, test logs) but rejects
// FAIL and malformed benchmark lines.
func parseBench(r io.Reader) (*Report, error) {
	rep := &Report{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case line == "FAIL" || strings.HasPrefix(line, "FAIL\t") || strings.HasPrefix(line, "--- FAIL"):
			return nil, fmt.Errorf("benchjson: input contains a test failure: %q", line)
		case strings.HasPrefix(line, "Benchmark"):
			if len(strings.Fields(line)) == 1 {
				// The bare-name pre-announcement go test prints before
				// a benchmark's own output; the result line follows.
				continue
			}
			b, err := parseLine(line, pkg)
			if err != nil {
				return nil, err
			}
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// parseLine parses one "BenchmarkName  N  v unit  v unit ..." line.
func parseLine(line, pkg string) (Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, fmt.Errorf("benchjson: malformed benchmark line %q", line)
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("benchjson: bad iteration count in %q: %v", line, err)
	}
	b := Benchmark{Name: fields[0], Pkg: pkg, Iterations: iters, Metrics: map[string]float64{}}
	rest := fields[2:]
	if len(rest)%2 != 0 {
		return Benchmark{}, fmt.Errorf("benchjson: odd metric fields in %q", line)
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("benchjson: bad metric value in %q: %v", line, err)
		}
		b.Metrics[rest[i+1]] = v
	}
	return b, nil
}

// allSingleIteration reports whether every benchmark ran exactly once.
func allSingleIteration(rep *Report) bool {
	if len(rep.Benchmarks) == 0 {
		return false
	}
	for _, b := range rep.Benchmarks {
		if b.Iterations != 1 {
			return false
		}
	}
	return true
}

// procSuffix is the trailing -GOMAXPROCS marker go test appends to
// benchmark names on multi-proc runs (absent when GOMAXPROCS=1).
var procSuffix = regexp.MustCompile(`-\d+$`)

// compare gates fresh results against a baseline report: every fresh
// benchmark whose name matches filter and whose metric exists in both
// reports must stay within (1+tolerance)× the baseline value. Names
// are matched with the -GOMAXPROCS suffix stripped, so a baseline
// recorded on one core count gates runs on any other — except
// parallel entries, which are skipped entirely when the recorded
// topologies differ: a worker-sweep timing from an 8-core box says
// nothing about a 2-core runner, and gating on it would fail (or
// silently pass) on hardware, not code. The topology compared is each
// entry's own when it records one, else its report's header. Repeated
// fresh entries of one name are gated once, on the fastest (lowest)
// value. It returns the number of comparisons made and the regressions
// found.
func compare(fresh, base *Report, filter *regexp.Regexp, metric string, tolerance float64, w io.Writer) (checked int, regressions int) {
	baseline := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[procSuffix.ReplaceAllString(b.Name, "")] = b
	}
	type run struct {
		name string
		best float64
		runs int
	}
	var order []string
	fastest := map[string]*run{}
	for _, b := range fresh.Benchmarks {
		if filter != nil && !filter.MatchString(b.Name) {
			continue
		}
		key := procSuffix.ReplaceAllString(b.Name, "")
		if ref, ok := baseline[key]; ok && parallelEntry.MatchString(key) {
			fc, fp := b.topology(fresh)
			bc, bp := ref.topology(base)
			if !sameTopology(fc, fp, bc, bp) {
				fmt.Fprintf(w, "%-10s %s: parallel entry, baseline topology differs (%d/%d vs %d/%d cpu/procs)\n",
					"skip", b.Name, fc, fp, bc, bp)
				continue
			}
		}
		v, ok := b.Metrics[metric]
		if !ok {
			continue
		}
		if r := fastest[key]; r != nil {
			r.best = min(r.best, v)
			r.runs++
			continue
		}
		fastest[key] = &run{name: b.Name, best: v, runs: 1}
		order = append(order, key)
	}
	for _, key := range order {
		r := fastest[key]
		oldV, ok := baseline[key].Metrics[metric]
		if !ok || oldV <= 0 {
			continue
		}
		checked++
		ratio := r.best / oldV
		status := "ok"
		if ratio > 1+tolerance {
			status = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-10s %s: %s %.0f -> %.0f (%.2fx, fastest of %d, tolerance %.0f%%)\n",
			status, r.name, metric, oldV, r.best, ratio, r.runs, tolerance*100)
	}
	return checked, regressions
}

func main() {
	profiles := prof.AddFlags(flag.CommandLine)
	var (
		benchtime = flag.String("benchtime", "", "record the -benchtime the benches ran with in the report")
		compareTo = flag.String("compare", "", "baseline JSON to gate against instead of emitting JSON")
		filter    = flag.String("filter", "", "regexp restricting -compare to matching benchmark names")
		metric    = flag.String("metric", "ns/op", "metric unit compared by -compare")
		tolerance = flag.Float64("tolerance", 0.15, "allowed relative slowdown before -compare fails")
	)
	flag.Parse()

	stopProf, err := profiles.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	defer stopProf()

	rep, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	rep.Benchtime = *benchtime
	rep.NumCPU = runtime.NumCPU()
	rep.Gomaxprocs = runtime.GOMAXPROCS(0)
	for i := range rep.Benchmarks {
		rep.Benchmarks[i].NumCPU, rep.Benchmarks[i].Gomaxprocs = rep.NumCPU, rep.Gomaxprocs
	}

	if *compareTo != "" {
		raw, err := os.ReadFile(*compareTo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		var base Report
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parsing baseline %s: %v\n", *compareTo, err)
			os.Exit(1)
		}
		var re *regexp.Regexp
		if *filter != "" {
			re, err = regexp.Compile(*filter)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: bad -filter: %v\n", err)
				os.Exit(1)
			}
		}
		checked, regressions := compare(rep, &base, re, *metric, *tolerance, os.Stdout)
		if checked == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: no benchmarks matched the baseline (filter %q, metric %q) — the gate compared nothing\n", *filter, *metric)
			os.Exit(1)
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d of %d benchmarks regressed beyond %.0f%%\n", regressions, checked, *tolerance*100)
			os.Exit(1)
		}
		return
	}

	if allSingleIteration(rep) {
		fmt.Fprintf(os.Stderr, "benchjson: all %d benchmarks ran exactly one iteration — single-iteration timings are noise, not a baseline; rerun go test with a larger -benchtime\n",
			len(rep.Benchmarks))
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
