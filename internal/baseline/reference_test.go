package baseline

import (
	"fmt"
	"reflect"
	"testing"

	"sinrcast/internal/broadcast"
	"sinrcast/internal/network"
	"sinrcast/internal/rng"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

// referenceFlood is the flood's original private round loop, kept as a
// test oracle for RunFloodOn: it ticks only the informed stations (an
// ascending list, merged with each round's new informs), resolves the
// uninformed listeners when the physical layer supports subsets (every
// round, transmitters or not), and keeps its own metrics. The policy
// hears Inform exactly where the loop merges a new inform.
func referenceFlood(net *network.Network, pol Policy, seed uint64, source, budget int, phys sim.Resolver) *broadcast.Result {
	n := net.N()
	if budget == 0 {
		budget = defaultBudget(net)
	}
	subset, _ := phys.(sim.SubsetResolver)
	root := rng.New(seed)
	rnds := make([]*rng.Source, n)
	for i := range rnds {
		rnds[i] = root.Split(uint64(i))
	}
	informed := make([]bool, n)
	informedAt := make([]int, n)
	for i := range informedAt {
		informedAt[i] = -1
	}
	informed[source] = true
	informedAt[source] = 0
	pol.Inform(source)

	res := &broadcast.Result{InformTime: informedAt}
	count := 1
	infList := []int{source}
	var tx, newInf, listeners []int
	lastInform := 0
	var metrics sim.Metrics
	for t := 0; t < budget && count < n; t++ {
		tx = tx[:0]
		for _, i := range infList {
			if rnds[i].Bernoulli(pol.TxProb(i, t, informedAt[i])) {
				tx = append(tx, i)
			}
		}
		var rec []sinr.Reception
		if subset != nil {
			listeners = listeners[:0]
			for i := 0; i < n; i++ {
				if !informed[i] {
					listeners = append(listeners, i)
				}
			}
			rec = subset.ResolveFor(tx, listeners)
		} else {
			rec = phys.Resolve(tx)
		}
		newInf = newInf[:0]
		for _, rc := range rec {
			if !informed[rc.Receiver] {
				informed[rc.Receiver] = true
				informedAt[rc.Receiver] = t
				newInf = append(newInf, rc.Receiver)
				count++
				lastInform = t + 1
			}
		}
		for _, i := range newInf {
			pol.Inform(i)
		}
		infList = mergeSorted(infList, newInf)
		metrics.Rounds++
		metrics.Transmissions += int64(len(tx))
		metrics.Receptions += int64(len(rec))
		if len(tx) > 0 {
			metrics.BusyRounds++
		}
	}
	res.AllInformed = count == n
	res.Metrics = metrics
	if res.AllInformed {
		res.Rounds = lastInform
	} else {
		res.Rounds = metrics.Rounds
	}
	return res
}

// mergeSorted merges two ascending, disjoint lists.
func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j >= len(b) || (i < len(a) && a[i] < b[j]) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return out
}

// newRefPolicy builds a fresh policy per run, since a Policy carries
// one run's oracle state.
func newRefPolicy(name string, net *network.Network) (Policy, error) {
	switch name {
	case "decay":
		return NewDecay(net.N()), nil
	case "daum":
		return NewDaumStyle(net), nil
	case "oracle":
		return NewDensityOracle(net, 0), nil
	default:
		return NewGridTDMA(net)
	}
}

// newRefEngine builds a fresh physical layer per run: one of the sinr
// engines (grid and hier reject non-Euclidean deployments) or the
// fading channel, which is not a subset resolver and so covers the
// full-resolution path.
func newRefEngine(name string, net *network.Network) (sim.Resolver, error) {
	if name == "fading" {
		return sinr.NewFadingEngine(net.Space, net.Params, 99)
	}
	return sinr.NewNamedEngine(name, net.Space, net.Params)
}

// TestFloodMatchesReference: RunFloodOn on sim.Engine reproduces the
// reference loop exactly — inform times, rounds, completion and every
// metric — for every policy on every registered family, on each
// engine the deployment supports. -short drops n=256, which takes most
// of the time.
func TestFloodMatchesReference(t *testing.T) {
	sizes := []int{16, 64, 256}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, fam := range scenario.Families() {
		for _, n := range sizes {
			for seed := uint64(1); seed <= 3; seed++ {
				spec := fam.SpecForN(n)
				t.Run(fmt.Sprintf("%s/n=%d/seed=%d", fam.Name, n, seed), func(t *testing.T) {
					t.Parallel()
					net, err := scenario.Generate(spec, sinr.DefaultParams(), seed)
					if err != nil {
						t.Fatal(err)
					}
					source := int(seed) % net.N()
					for _, en := range []string{"exact", "hier", "grid", "fading"} {
						if _, err := newRefEngine(en, net); err != nil {
							continue
						}
						for _, pn := range []string{"decay", "daum", "oracle", "tdma"} {
							fresh := func() (Policy, sim.Resolver) {
								pol, err := newRefPolicy(pn, net)
								if err != nil {
									t.Fatal(err)
								}
								phys, err := newRefEngine(en, net)
								if err != nil {
									t.Fatal(err)
								}
								return pol, phys
							}
							pol, phys := fresh()
							got, err := RunFloodOn(net, pol, seed, source, 0, phys)
							if err != nil {
								t.Fatalf("%s/%s: %v", en, pn, err)
							}
							pol, phys = fresh()
							if want := referenceFlood(net, pol, seed, source, 0, phys); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s/%s: engine flood differs from the reference loop:\ngot  %+v\nwant %+v", en, pn, got, want)
							}
						}
					}
				})
			}
		}
	}
	// A sweep of 1100 levels reaches 2^-1075 and beyond, which Ldexp
	// rounds to 0: there the per-round loop makes no draw, and the
	// drawn-ahead stations must skip those steps too.
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("sweep-L=1100/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			spec, err := scenario.Parse("uniform:n=24")
			if err != nil {
				t.Fatal(err)
			}
			net, err := scenario.Generate(spec, sinr.DefaultParams(), seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, en := range []string{"exact", "hier"} {
				flood := func(run func(Policy, sim.Resolver) *broadcast.Result) *broadcast.Result {
					phys, err := newRefEngine(en, net)
					if err != nil {
						t.Fatal(err)
					}
					return run(&Decay{sweep{L: 1100}}, phys)
				}
				got := flood(func(pol Policy, phys sim.Resolver) *broadcast.Result {
					res, err := RunFloodOn(net, pol, seed, 0, 20000, phys)
					if err != nil {
						t.Fatal(err)
					}
					return res
				})
				want := flood(func(pol Policy, phys sim.Resolver) *broadcast.Result {
					return referenceFlood(net, pol, seed, 0, 20000, phys)
				})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: engine flood differs from the reference loop:\ngot  %+v\nwant %+v", en, got, want)
				}
				t.Logf("%s: %d rounds, all informed %v", en, got.Metrics.Rounds, got.AllInformed)
			}
		})
	}
}
