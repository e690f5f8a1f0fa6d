package exp

import (
	"fmt"
	"testing"

	"sinrcast/internal/stats"
)

// TestTablesIdenticalAcrossWorkers pins the determinism contract of
// trial concurrency: every experiment table must render bit-identically
// whether trials run serially or on many goroutines, because trial
// seeds depend only on (Seed, experiment, data point, trial).
func TestTablesIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	runners := []struct {
		name string
		run  func(Config) (*stats.Table, error)
	}{
		{"E1", E1NoSBroadcastVsD},
		{"E3", E3Lemma1},
		{"E9", E9SuccessProbability},
		{"E11", E11ColoringAblation},
		{"E12", E12CrossFamilySweep},
	}
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			cfg := smallCfg()
			cfg.Trials = 2
			if r.name == "E9" || r.name == "E11" {
				cfg.Trials = 1
			}
			serial := cfg
			serial.Workers = 1
			parallel := cfg
			parallel.Workers = 4
			a, err := r.run(serial)
			if err != nil {
				t.Fatal(err)
			}
			b, err := r.run(parallel)
			if err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
				t.Fatalf("table differs across Workers:\nserial:\n%s\nparallel:\n%s", a, b)
			}
		})
	}
}

// TestTrialPoolErrorsStayInTheirPoint registers three data points on
// one pool, the middle one failing on trials 1 and 3: that point must
// report the lowest failing trial's error, and the other points must
// come back complete and in trial order, for every worker count.
func TestTrialPoolErrorsStayInTheirPoint(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		cfg := Config{Seed: 7, Workers: w}
		p := newTrialPool(cfg)
		echo := func(seed uint64) (uint64, error) { return seed, nil }
		a := addTrials(p, 4, 99, 0, echo)
		bad := addTrials(p, 5, 99, 1, func(seed uint64) (uint64, error) {
			for _, tr := range []int{3, 1} {
				if seed == cfg.trialSeed(99, 1, tr) {
					return 0, fmt.Errorf("trial %d failed", tr)
				}
			}
			return seed, nil
		})
		c := addTrials(p, 3, 99, 2, echo)
		p.run()
		for _, good := range []struct {
			point uint64
			set   *trialSet[uint64]
		}{{0, a}, {2, c}} {
			got, err := good.set.results()
			if err != nil {
				t.Fatalf("Workers=%d: point %d: unexpected error %v", w, good.point, err)
			}
			for tr, seed := range got {
				if seed != cfg.trialSeed(99, good.point, tr) {
					t.Fatalf("Workers=%d: point %d trial %d: seed %d, want %d",
						w, good.point, tr, seed, cfg.trialSeed(99, good.point, tr))
				}
			}
		}
		_, err := bad.results()
		if err == nil || err.Error() != "trial 1 failed" {
			t.Fatalf("Workers=%d: failing point returned %v, want the trial 1 error", w, err)
		}
	}
}

func TestWorkersHelper(t *testing.T) {
	if (Config{Workers: 3}).workers() != 3 {
		t.Fatal("explicit Workers not honored")
	}
	if (Config{}).workers() < 1 {
		t.Fatal("default workers must be >= 1")
	}
	if (Config{Workers: -2}).workers() < 1 {
		t.Fatal("negative Workers must fall back to GOMAXPROCS")
	}
}

func TestTrialSeedsDistinct(t *testing.T) {
	c := Config{Seed: 2014}
	seen := map[uint64][3]uint64{}
	for exp := uint64(1); exp <= 11; exp++ {
		for point := uint64(0); point < 40; point++ {
			for trial := 0; trial < 10; trial++ {
				s := c.trialSeed(exp, point, trial)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: (%d,%d,%d) and %v -> %d", exp, point, trial, prev, s)
				}
				seen[s] = [3]uint64{exp, point, uint64(trial)}
			}
		}
	}
}
