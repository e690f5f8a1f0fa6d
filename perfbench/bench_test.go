package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"sinrcast/internal/broadcast"
	"sinrcast/internal/geom"
	"sinrcast/internal/network"
	"sinrcast/internal/protocol"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

// TestTimedResolverIdentical runs every bcast-solo protocol, on every
// engine kind the workload uses, with and without the timing wrapper:
// the broadcast.Result must not change.
func TestTimedResolverIdentical(t *testing.T) {
	cases := []struct{ scenario, protocol, engine string }{
		{"uniform:n=600", "decay", "hier"},
		{"uniform:n=600", "decay", "grid"},
		{"uniform:n=64", "nos", "exact"},
		{"uniform:n=96", "s", "exact"},
	}
	for _, c := range cases {
		sp, err := scenario.Parse(c.scenario)
		if err != nil {
			t.Fatal(err)
		}
		net, err := scenario.Generate(sp, sinr.DefaultParams(), 3)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := protocol.Parse(c.protocol)
		if err != nil {
			t.Fatal(err)
		}
		run := func(st *resolveStats) *broadcast.Result {
			res, err := protocol.RunOn(net, ps, 9, func(n *network.Network) (sim.Resolver, error) {
				eng, err := sinr.NewNamedEngine(c.engine, n.Space, n.Params)
				if err != nil || st == nil {
					return eng, err
				}
				return timeResolver(eng, st), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		var st resolveStats
		plain, timed := run(nil), run(&st)
		if !reflect.DeepEqual(plain, timed) {
			t.Errorf("%s %s on %s: timed result %+v differs from plain %+v", c.protocol, c.scenario, c.engine, timed.Metrics, plain.Metrics)
		}
		if st.resolveCalls+st.resolveForCalls == 0 || st.ns <= 0 {
			t.Errorf("%s on %s: wrapper counted nothing: %+v", c.protocol, c.engine, st)
		}
	}
}

// resolveOnly is a physical layer without the subset capability.
type resolveOnly struct{ sim.Resolver }

func TestTimedResolverSubsetCapability(t *testing.T) {
	net, err := scenario.Generate(scenario.Spec{Family: "uniform", Params: map[string]float64{"n": 32}}, sinr.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sinr.NewEngine(net.Space, net.Params)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := timeResolver(eng, &resolveStats{}).(sim.SubsetResolver); !ok {
		t.Error("wrapping a SubsetResolver lost the capability")
	}
	if _, ok := timeResolver(resolveOnly{eng}, &resolveStats{}).(sim.SubsetResolver); ok {
		t.Error("wrapping a Resolve-only layer gained the subset capability")
	}
}

// workloadInputs collects every input the three workloads derive from
// a seed, including the first bcast-solo deployment of every case.
func workloadInputs(t *testing.T, seed uint64) any {
	var serveJobs []serveJob
	for i := 0; i < 256; i++ {
		serveJobs = append(serveJobs, serveJobAt(seed, i))
	}
	var deploy []any
	for c := range bcastCases {
		in, err := setupCase(seed, 0, c)
		if err != nil {
			t.Fatal(err)
		}
		deploy = append(deploy, in.net.Space.(*geom.Euclidean).Pts, in.spec.String(), in.seed)
	}
	var seeds [][2]uint64
	for k := 0; k < 4; k++ {
		for c := range bcastCases {
			d, s := bcastSeeds(seed, k, c)
			seeds = append(seeds, [2]uint64{d, s})
		}
	}
	return []any{serveWarmup(seed), serveJobs, seeds, deploy, expConfig(seed, 0), expConfig(seed, 1)}
}

func TestInputsFollowSeed(t *testing.T) {
	a, b, c := workloadInputs(t, 1), workloadInputs(t, 1), workloadInputs(t, 2)
	if !reflect.DeepEqual(a, b) {
		t.Error("one seed produced different inputs")
	}
	for i := range a.([]any) {
		if reflect.DeepEqual(a.([]any)[i], c.([]any)[i]) {
			t.Errorf("input group %d is the same for seeds 1 and 2", i)
		}
	}
}

func TestServeScheduleMix(t *testing.T) {
	n := map[string]int{}
	for i := 0; i < 16000; i++ {
		n[serveJobAt(7, i).class]++
	}
	for _, class := range []string{classMiss, classExp} {
		if n[class] < 800 || n[class] > 1200 {
			t.Errorf("%d %s jobs in 16000, want about 1000", n[class], class)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the printed metrics and the
// workload names in step with BENCHMARK.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricSpec, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the program, %d in BENCHMARK.json", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program has %s [%s], BENCHMARK.json %s [%s]", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}

func TestUnionLen(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	iv := []interval{{at(0), at(10)}, {at(5), at(12)}, {at(20), at(25)}, {at(21), at(22)}, {at(30), at(30)}}
	if got := unionLen(iv); got != 17*time.Millisecond {
		t.Errorf("unionLen = %v, want 17ms", got)
	}
}
