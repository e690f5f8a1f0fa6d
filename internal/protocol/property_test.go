package protocol

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"sinrcast/internal/broadcast"
	"sinrcast/internal/network"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sinr"
)

// TestEveryProtocolOnEveryFamily is the registry-wide matrix invariant
// check: every registered protocol must run on a small instance of
// every registered scenario family, terminate within its budget,
// report internally consistent Result.Metrics, and be bit-deterministic
// — the same (net, spec, seed) must produce a deeply equal Result when
// re-run, including when the re-runs race each other on many
// goroutines (protocol runs share no mutable state). Both axes grow
// automatically: registering a protocol or a family extends this test
// with no edits here.
func TestEveryProtocolOnEveryFamily(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix")
	}
	const (
		targetN = 16
		seed    = 3
	)
	phys := sinr.DefaultParams()
	protos := Protocols()
	if len(protos) < 11 {
		t.Fatalf("registry has %d protocols, want >= 11", len(protos))
	}

	type cell struct {
		family string
		proto  string
		net    *network.Network
		first  *broadcast.Result
	}
	var cells []*cell
	for _, f := range scenario.Families() {
		net, err := scenario.Generate(f.SpecForN(targetN), phys, seed)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		for _, p := range protos {
			cells = append(cells, &cell{family: f.Name, proto: p.Name, net: net})
		}
	}

	// Serial pass: run every cell once and check the result invariants.
	for _, c := range cells {
		res, err := Run(c.net, Spec{Name: c.proto}, seed)
		if err != nil {
			t.Fatalf("%s on %s: %v", c.proto, c.family, err)
		}
		c.first = res
		checkResult(t, c.proto, c.family, c.net, res)
	}

	// Concurrent pass: re-run all cells racing on goroutines; every
	// Result must be deeply equal to its serial twin.
	second := make([]*broadcast.Result, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c *cell) {
			defer wg.Done()
			second[i], errs[i] = Run(c.net, Spec{Name: c.proto}, seed)
		}(i, c)
	}
	wg.Wait()
	for i, c := range cells {
		if errs[i] != nil {
			t.Fatalf("%s on %s (concurrent): %v", c.proto, c.family, errs[i])
		}
		if !reflect.DeepEqual(c.first, second[i]) {
			t.Errorf("%s on %s: result differs between serial and concurrent runs", c.proto, c.family)
		}
	}
}

// checkResult asserts the cross-protocol Result contract: the run
// terminated (a bounded, positive number of simulated rounds), the
// reported completion round sits inside the simulated range, counters
// are mutually consistent, and inform times (when reported) are
// plausible rounds.
func checkResult(t *testing.T, proto, family string, net *network.Network, res *broadcast.Result) {
	t.Helper()
	if res == nil {
		t.Fatalf("%s on %s: nil result", proto, family)
	}
	m := res.Metrics
	if m.Rounds <= 0 {
		t.Errorf("%s on %s: simulated %d rounds, want > 0", proto, family, m.Rounds)
	}
	if res.Rounds < 0 || res.Rounds > m.Rounds {
		t.Errorf("%s on %s: Rounds = %d outside [0, %d simulated]", proto, family, res.Rounds, m.Rounds)
	}
	if m.BusyRounds < 0 || m.BusyRounds > m.Rounds {
		t.Errorf("%s on %s: BusyRounds = %d outside [0, %d]", proto, family, m.BusyRounds, m.Rounds)
	}
	if m.Transmissions < int64(m.BusyRounds) {
		t.Errorf("%s on %s: %d transmissions < %d busy rounds", proto, family, m.Transmissions, m.BusyRounds)
	}
	if m.Transmissions > int64(m.Rounds)*int64(net.N()) {
		t.Errorf("%s on %s: %d transmissions exceed rounds×n", proto, family, m.Transmissions)
	}
	if m.Receptions < 0 || m.Receptions > int64(m.Rounds)*int64(net.N()) {
		t.Errorf("%s on %s: %d receptions outside [0, rounds×n]", proto, family, m.Receptions)
	}
	if res.InformTime != nil {
		if len(res.InformTime) != net.N() {
			t.Fatalf("%s on %s: %d inform times for %d stations", proto, family, len(res.InformTime), net.N())
		}
		for i, it := range res.InformTime {
			if it < -1 || it > m.Rounds {
				t.Errorf("%s on %s: InformTime[%d] = %d outside [-1, %d]", proto, family, i, it, m.Rounds)
			}
			if res.AllInformed && it < 0 {
				t.Errorf("%s on %s: AllInformed but station %d never informed", proto, family, i)
			}
		}
	}
}

// TestRunConcurrencySmoke is the always-on slice of the matrix
// concurrency property (the full matrix skips under -short, so the
// -race CI job relies on this): a handful of cheap protocols race on
// one shared network, two goroutines per protocol, and each pair must
// produce deeply equal results.
func TestRunConcurrencySmoke(t *testing.T) {
	net, err := scenario.Generate(scenario.Spec{Family: "grid", Params: map[string]float64{"n": 16, "spacing": 0.5}},
		sinr.DefaultParams(), 4)
	if err != nil {
		t.Fatal(err)
	}
	protos := []string{"nos", "s", "decay", "daum", "oracle", "tdma", "alert"}
	results := make([][2]*broadcast.Result, len(protos))
	errs := make([][2]error, len(protos))
	var wg sync.WaitGroup
	for i, name := range protos {
		for rep := 0; rep < 2; rep++ {
			wg.Add(1)
			go func(i, rep int, name string) {
				defer wg.Done()
				results[i][rep], errs[i][rep] = Run(net, Spec{Name: name}, 5)
			}(i, rep, name)
		}
	}
	wg.Wait()
	for i, name := range protos {
		if errs[i][0] != nil || errs[i][1] != nil {
			t.Fatalf("%s: %v / %v", name, errs[i][0], errs[i][1])
		}
		if !reflect.DeepEqual(results[i][0], results[i][1]) {
			t.Errorf("%s: concurrent runs diverged", name)
		}
	}
}

// TestBudgetHonored pins "terminates within its budget": an explicit
// round budget must cap the simulated rounds for the broadcast
// protocols (budgetmul) and the flood baselines (budget).
func TestBudgetHonored(t *testing.T) {
	net, err := scenario.Generate(scenario.Spec{Family: "path", Params: map[string]float64{"n": 24, "frac": 0.9}},
		sinr.DefaultParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// A deliberately starved budget: the run must stop there, informed
	// or not.
	res, err := Run(net, Spec{Name: "decay", Params: map[string]float64{"budget": 7}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Rounds > 7 {
		t.Errorf("decay simulated %d rounds under budget 7", res.Metrics.Rounds)
	}
	res, err = Run(net, Spec{Name: "nos", Params: map[string]float64{"budgetmul": 0.01}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := broadcast.DefaultConfig(net.N(), net.Space.Growth(), net.Params.Eps)
	full := broadcast.Budget(cfg, net)
	if res.Metrics.Rounds >= full {
		t.Errorf("nos with budgetmul=0.01 simulated %d rounds, full budget is %d", res.Metrics.Rounds, full)
	}
}

// TestWakeupFarStaggerBoundedMemory pins the engine's calendar
// horizon: wakeup's staggered wake rounds reach k·stagger·phase, and a
// spec may ask for stagger=100 with every station a waker. Those hints
// must not grow the round loop's calendar with them — the far run
// allocates within a few MB of the near one, and runs the same rounds.
func TestWakeupFarStaggerBoundedMemory(t *testing.T) {
	net, err := scenario.Generate(scenario.Spec{Family: "uniform", Params: map[string]float64{"n": 64}}, sinr.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(spec string) (*broadcast.Result, uint64) {
		s, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(net, s, 1)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res, after.TotalAlloc - before.TotalAlloc
	}
	near, nearAlloc := run("wakeup:wakers=64,stagger=0.5")
	far, farAlloc := run("wakeup:wakers=64,stagger=100")
	if near.Rounds != far.Rounds {
		t.Fatalf("rounds differ: stagger=0.5 ran %d, stagger=100 ran %d", near.Rounds, far.Rounds)
	}
	const slack = 4 << 20
	if farAlloc > nearAlloc+slack {
		t.Fatalf("stagger=100 allocated %d bytes, stagger=0.5 %d: far wake hints grow the round loop", farAlloc, nearAlloc)
	}
}
