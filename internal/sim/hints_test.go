package sim_test

import (
	"reflect"
	"testing"

	"sinrcast/internal/coloring"
	"sinrcast/internal/network"
	"sinrcast/internal/protocol"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

// hintFamilies are the deployments the cross-package identity test
// runs on: a uniform disc, bridged dense clusters and a long corridor.
var hintFamilies = []string{"uniform", "clusters", "corridor"}

func hintNet(t *testing.T, family string) *network.Network {
	t.Helper()
	f, ok := scenario.Lookup(family)
	if !ok {
		t.Fatalf("unknown family %q", family)
	}
	net, err := scenario.Generate(f.SpecForN(32), sinr.DefaultParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// withReference runs fn on the scheduled loop and again with every
// engine ticking each station every round, and returns both results.
func withReference[T any](fn func() T) (sched, ref T) {
	sched = fn()
	prev := sim.SetTickEveryRound(true)
	defer sim.SetTickEveryRound(prev)
	return sched, fn()
}

// TestWakeHintsMatchTickEveryRound pins the Protocol contract for every
// station type in the tree: each registered protocol — the paper's
// broadcasts, the wake-up engine, the baseline floods and the §5 apps,
// plus the negative alert case and far-staggered wake-ups — and the
// standalone coloring produce a deeply equal result whether the engine
// follows their wake hints or ticks every station every round.
func TestWakeHintsMatchTickEveryRound(t *testing.T) {
	specs := protocol.Names()
	specs = append(specs, "alert:raised=0", "wakeup:wakers=8,stagger=3")
	for _, family := range hintFamilies {
		net := hintNet(t, family)
		for _, s := range specs {
			t.Run(s+"/"+family, func(t *testing.T) {
				spec, err := protocol.Parse(s)
				if err != nil {
					t.Fatal(err)
				}
				sched, ref := withReference(func() any {
					res, err := protocol.Run(net, spec, 9)
					if err != nil {
						t.Fatal(err)
					}
					return res
				})
				if !reflect.DeepEqual(sched, ref) {
					t.Fatalf("%s diverges from the tick-everyone reference:\nsched %+v\nref   %+v", s, sched, ref)
				}
			})
		}
		t.Run("coloring/"+family, func(t *testing.T) {
			par := coloring.DefaultParams(net.N(), net.Space.Growth(), net.Params.Eps)
			sched, ref := withReference(func() any {
				res, err := coloring.Run(net, par, 9)
				if err != nil {
					t.Fatal(err)
				}
				return res
			})
			if !reflect.DeepEqual(sched, ref) {
				t.Fatalf("coloring diverges from the tick-everyone reference:\nsched %+v\nref   %+v", sched, ref)
			}
		})
	}
}
