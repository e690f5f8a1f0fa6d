package main

import (
	"regexp"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: sinrcast/internal/sinr
cpu: AMD EPYC 7B13
BenchmarkResolve/n=1k,alpha=2/serial-8         	     100	  11003613 ns/op	    2048 B/op	       3 allocs/op
BenchmarkResolve/n=1k,alpha=2/parallel-8
BenchmarkResolve/n=1k,alpha=2/parallel-8       	     301	   3989120 ns/op
PASS
ok  	sinrcast/internal/sinr	2.153s
pkg: sinrcast
BenchmarkE13ProtocolMatrix/scale=0.5-8         	       1	1882340115 ns/op
PASS
ok  	sinrcast	1.901s
`

func TestParseBench(t *testing.T) {
	rep, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "AMD EPYC 7B13" {
		t.Fatalf("context = %q/%q/%q", rep.Goos, rep.Goarch, rep.CPU)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkResolve/n=1k,alpha=2/serial-8" || b.Pkg != "sinrcast/internal/sinr" {
		t.Fatalf("first bench = %q in %q", b.Name, b.Pkg)
	}
	if b.Iterations != 100 || b.Metrics["ns/op"] != 11003613 || b.Metrics["B/op"] != 2048 || b.Metrics["allocs/op"] != 3 {
		t.Fatalf("first bench parsed as %+v", b)
	}
	// The bare pre-announcement line is skipped; the result line that
	// follows it is kept.
	if rep.Benchmarks[1].Iterations != 301 {
		t.Fatalf("second bench = %+v", rep.Benchmarks[1])
	}
	// Package blocks switch with pkg: headers.
	if rep.Benchmarks[2].Pkg != "sinrcast" {
		t.Fatalf("third bench pkg = %q", rep.Benchmarks[2].Pkg)
	}
}

func TestParseBenchRejectsFailure(t *testing.T) {
	for _, in := range []string{
		"--- FAIL: TestSomething (0.1s)\nFAIL\n",
		"FAIL\tsinrcast/internal/sinr\t1.2s\n",
		"BenchmarkBroken-8 notanumber 12 ns/op\n",
		"BenchmarkOdd-8 10 12 ns/op trailing\n",
	} {
		if _, err := parseBench(strings.NewReader(in)); err == nil {
			t.Errorf("parseBench(%q): want error, got nil", in)
		}
	}
}

func TestAllSingleIteration(t *testing.T) {
	one := Benchmark{Name: "a", Iterations: 1, Metrics: map[string]float64{"ns/op": 5}}
	three := Benchmark{Name: "b", Iterations: 3, Metrics: map[string]float64{"ns/op": 5}}
	tests := []struct {
		name string
		rep  Report
		want bool
	}{
		{"empty", Report{}, false},
		{"all 1x", Report{Benchmarks: []Benchmark{one, one}}, true},
		{"mixed", Report{Benchmarks: []Benchmark{one, three}}, false},
		{"all multi", Report{Benchmarks: []Benchmark{three}}, false},
	}
	for _, tt := range tests {
		if got := allSingleIteration(&tt.rep); got != tt.want {
			t.Errorf("%s: allSingleIteration = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(name string, ns float64) Benchmark {
		return Benchmark{Name: name, Iterations: 3, Metrics: map[string]float64{"ns/round": ns}}
	}
	base := &Report{Benchmarks: []Benchmark{mk("BenchmarkResolve/n=16384/alpha=2/serial", 1000), mk("BenchmarkOther", 50)}}

	// Within tolerance: pass.
	fresh := &Report{Benchmarks: []Benchmark{mk("BenchmarkResolve/n=16384/alpha=2/serial", 1100)}}
	var sb strings.Builder
	checked, regressions := compare(fresh, base, nil, "ns/round", 0.15, &sb)
	if checked != 1 || regressions != 0 {
		t.Fatalf("within tolerance: checked=%d regressions=%d\n%s", checked, regressions, sb.String())
	}

	// Beyond tolerance: regression.
	fresh = &Report{Benchmarks: []Benchmark{mk("BenchmarkResolve/n=16384/alpha=2/serial", 1200)}}
	if _, regressions = compare(fresh, base, nil, "ns/round", 0.15, &strings.Builder{}); regressions != 1 {
		t.Fatalf("beyond tolerance: regressions=%d, want 1", regressions)
	}

	// Filter restricts the comparison; unmatched baselines don't count.
	fresh = &Report{Benchmarks: []Benchmark{
		mk("BenchmarkResolve/n=16384/alpha=2/serial", 1000),
		mk("BenchmarkOther", 500), // 10x worse but filtered out
	}}
	re := regexp.MustCompile(`BenchmarkResolve/n=16384`)
	checked, regressions = compare(fresh, base, re, "ns/round", 0.15, &strings.Builder{})
	if checked != 1 || regressions != 0 {
		t.Fatalf("filtered: checked=%d regressions=%d", checked, regressions)
	}

	// A fresh bench absent from the baseline is skipped, not an error.
	fresh = &Report{Benchmarks: []Benchmark{mk("BenchmarkBrandNew", 10)}}
	if checked, _ = compare(fresh, base, nil, "ns/round", 0.15, &strings.Builder{}); checked != 0 {
		t.Fatalf("unknown bench: checked=%d, want 0", checked)
	}

	// The -GOMAXPROCS suffix is ignored when matching: a baseline
	// recorded on one core count gates runs on any other.
	fresh = &Report{Benchmarks: []Benchmark{mk("BenchmarkResolve/n=16384/alpha=2/serial-8", 1100)}}
	checked, regressions = compare(fresh, base, nil, "ns/round", 0.15, &strings.Builder{})
	if checked != 1 || regressions != 0 {
		t.Fatalf("proc suffix: checked=%d regressions=%d, want 1/0", checked, regressions)
	}
	baseSuffixed := &Report{Benchmarks: []Benchmark{mk("BenchmarkResolve/n=16384/alpha=2/serial-16", 1000)}}
	fresh = &Report{Benchmarks: []Benchmark{mk("BenchmarkResolve/n=16384/alpha=2/serial", 1300)}}
	if _, regressions = compare(fresh, baseSuffixed, nil, "ns/round", 0.15, &strings.Builder{}); regressions != 1 {
		t.Fatalf("proc suffix on baseline: regressions=%d, want 1", regressions)
	}
}

func TestCompareTopologySkip(t *testing.T) {
	mk := func(name string, ns float64) Benchmark {
		return Benchmark{Name: name, Iterations: 3, Metrics: map[string]float64{"ns/round": ns}}
	}
	benches := []Benchmark{
		mk("BenchmarkHierResolve/n=65536/alpha=2.5/serial", 1000),
		mk("BenchmarkHierResolve/n=65536/alpha=2.5/parallel-8", 400),
		mk("BenchmarkParallelScaling/n=65536/alpha=2.5/workers=4", 300),
	}
	base := &Report{NumCPU: 8, Gomaxprocs: 8, Benchmarks: benches}

	// Same topology: parallel entries are gated like any other (the 10x
	// slowdowns regress).
	fresh := &Report{NumCPU: 8, Gomaxprocs: 8, Benchmarks: []Benchmark{
		mk("BenchmarkHierResolve/n=65536/alpha=2.5/parallel-8", 4000),
		mk("BenchmarkParallelScaling/n=65536/alpha=2.5/workers=4", 3000),
	}}
	checked, regressions := compare(fresh, base, nil, "ns/round", 0.15, &strings.Builder{})
	if checked != 2 || regressions != 2 {
		t.Fatalf("same topology: checked=%d regressions=%d, want 2/2", checked, regressions)
	}

	// Different topology: parallel entries are skipped, serial entries
	// still gate.
	fresh = &Report{NumCPU: 2, Gomaxprocs: 2, Benchmarks: []Benchmark{
		mk("BenchmarkHierResolve/n=65536/alpha=2.5/serial", 1100),
		mk("BenchmarkHierResolve/n=65536/alpha=2.5/parallel-2", 4000),
		mk("BenchmarkParallelScaling/n=65536/alpha=2.5/workers=4", 3000),
	}}
	var sb strings.Builder
	checked, regressions = compare(fresh, base, nil, "ns/round", 0.15, &sb)
	if checked != 1 || regressions != 0 {
		t.Fatalf("cross topology: checked=%d regressions=%d, want 1/0\n%s", checked, regressions, sb.String())
	}
	if !strings.Contains(sb.String(), "skip") {
		t.Fatalf("cross topology: no skip notice emitted:\n%s", sb.String())
	}

	// A baseline predating the topology fields gates everything.
	legacy := &Report{Benchmarks: benches}
	fresh = &Report{NumCPU: 2, Gomaxprocs: 2, Benchmarks: []Benchmark{
		mk("BenchmarkHierResolve/n=65536/alpha=2.5/parallel-2", 410),
	}}
	if checked, _ = compare(fresh, legacy, nil, "ns/round", 0.15, &strings.Builder{}); checked != 1 {
		t.Fatalf("legacy baseline: checked=%d, want 1", checked)
	}
}

// TestCompareFastestOfRepeats pins the -count N rule: repeated fresh
// entries of one name are gated once, on the fastest run.
func TestCompareFastestOfRepeats(t *testing.T) {
	mk := func(name string, ns float64) Benchmark {
		return Benchmark{Name: name, Iterations: 2, Metrics: map[string]float64{"ns/op": ns}}
	}
	const name = "BenchmarkE13ProtocolMatrix/scale=0.5"
	base := &Report{Benchmarks: []Benchmark{mk(name, 100)}}

	// One of three runs within bound: the gate passes, counting once.
	fresh := &Report{Benchmarks: []Benchmark{mk(name+"-2", 190), mk(name+"-2", 130), mk(name+"-2", 220)}}
	var sb strings.Builder
	checked, regressions := compare(fresh, base, nil, "ns/op", 0.35, &sb)
	if checked != 1 || regressions != 0 {
		t.Fatalf("one run within bound: checked=%d regressions=%d, want 1/0\n%s", checked, regressions, sb.String())
	}
	if !strings.Contains(sb.String(), "fastest of 3") {
		t.Fatalf("report does not name the repeat count:\n%s", sb.String())
	}

	// All three runs beyond bound: one regression.
	fresh = &Report{Benchmarks: []Benchmark{mk(name+"-2", 190), mk(name+"-2", 140), mk(name+"-2", 220)}}
	checked, regressions = compare(fresh, base, nil, "ns/op", 0.35, &strings.Builder{})
	if checked != 1 || regressions != 1 {
		t.Fatalf("all runs beyond bound: checked=%d regressions=%d, want 1/1", checked, regressions)
	}
}

func TestParseBenchEmptyInput(t *testing.T) {
	rep, err := parseBench(strings.NewReader("PASS\nok \tx\t0.1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("benchmarks = %v, want none", rep.Benchmarks)
	}
}

// TestCompareEntryTopology pins per-entry topology: a baseline whose
// header names one machine can carry entries recorded on another, and
// -compare judges each parallel entry by the topology it records (the
// header's only when it records none), on both sides.
func TestCompareEntryTopology(t *testing.T) {
	mk := func(name string, ns float64, cpu, procs int) Benchmark {
		return Benchmark{Name: name, Iterations: 3, NumCPU: cpu, Gomaxprocs: procs,
			Metrics: map[string]float64{"ns/round": ns}}
	}
	// The header says 1/1, but the re-recorded parallel entry ran on
	// 2/2; the old one records nothing and inherits the header.
	base := &Report{NumCPU: 1, Gomaxprocs: 1, Benchmarks: []Benchmark{
		mk("BenchmarkHierResolve/n=65536/alpha=2.5/parallel", 1000, 2, 2),
		mk("BenchmarkHierResolve/n=65536/alpha=4/parallel", 1000, 0, 0),
	}}
	fresh := &Report{NumCPU: 2, Gomaxprocs: 2, Benchmarks: []Benchmark{
		mk("BenchmarkHierResolve/n=65536/alpha=2.5/parallel-2", 3000, 2, 2),
		mk("BenchmarkHierResolve/n=65536/alpha=4/parallel-2", 3000, 2, 2),
	}}
	var sb strings.Builder
	checked, regressions := compare(fresh, base, nil, "ns/round", 0.15, &sb)
	if checked != 1 || regressions != 1 {
		t.Fatalf("entry topology: checked=%d regressions=%d, want 1/1\n%s", checked, regressions, sb.String())
	}
	if !strings.Contains(sb.String(), "REGRESSION BenchmarkHierResolve/n=65536/alpha=2.5/parallel-2") ||
		!strings.Contains(sb.String(), "skip       BenchmarkHierResolve/n=65536/alpha=4/parallel-2") {
		t.Fatalf("want alpha=2.5 gated and alpha=4 skipped:\n%s", sb.String())
	}

	// A fresh entry's own topology overrides its report's header too.
	fresh = &Report{NumCPU: 8, Gomaxprocs: 8, Benchmarks: []Benchmark{
		mk("BenchmarkHierResolve/n=65536/alpha=2.5/parallel-2", 900, 2, 2),
	}}
	if checked, regressions = compare(fresh, base, nil, "ns/round", 0.15, &strings.Builder{}); checked != 1 || regressions != 0 {
		t.Fatalf("fresh entry topology: checked=%d regressions=%d, want 1/0", checked, regressions)
	}
}
