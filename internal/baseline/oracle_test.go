package baseline

import (
	"fmt"
	"reflect"
	"testing"

	"sinrcast/internal/geom"
	"sinrcast/internal/network"
	"sinrcast/internal/rng"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sinr"
)

// recountOracle is the reference density oracle: every Prepare
// recounts the informed stations in every informed station's unit ball
// from scratch, O(n²) per round.
type recountOracle struct {
	net  *network.Network
	C    float64
	dens []int
}

func newRecountOracle(net *network.Network, c float64) *recountOracle {
	if c <= 0 {
		c = 0.5
	}
	return &recountOracle{net: net, C: c, dens: make([]int, net.N())}
}

func (o *recountOracle) Name() string { return "density-oracle" }

func (o *recountOracle) Prepare(_ int, informed []bool) {
	n := o.net.N()
	for i := 0; i < n; i++ {
		o.dens[i] = 0
	}
	for i := 0; i < n; i++ {
		if !informed[i] {
			continue
		}
		for j := 0; j < n; j++ {
			if informed[j] && o.net.Space.Dist(i, j) <= 1 {
				o.dens[i]++
			}
		}
	}
}

func (o *recountOracle) TxProb(i, _, _ int) float64 {
	d := o.dens[i]
	if d < 1 {
		d = 1
	}
	p := o.C / float64(d)
	if p > 1 {
		return 1
	}
	return p
}

// TestDensityOracleFloodMatchesRecount: the incremental oracle's
// floods are identical — inform times, rounds, metrics — to the
// recounting reference on every registered family.
func TestDensityOracleFloodMatchesRecount(t *testing.T) {
	for _, fam := range scenario.Families() {
		for _, n := range []int{16, 64, 256} {
			for seed := uint64(1); seed <= 3; seed++ {
				spec := fam.SpecForN(n)
				t.Run(fmt.Sprintf("%s/n=%d/seed=%d", fam.Name, n, seed), func(t *testing.T) {
					net, err := scenario.Generate(spec, sinr.DefaultParams(), seed)
					if err != nil {
						t.Fatal(err)
					}
					got, err := RunFlood(net, NewDensityOracle(net, 0), seed, 0, 0)
					if err != nil {
						t.Fatal(err)
					}
					want, err := RunFlood(net, newRecountOracle(net, 0), seed, 0, 0)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("incremental flood differs from recount:\ngot  %+v\nwant %+v", got, want)
					}
				})
			}
		}
	}
}

// TestDensityOracleTxProbMatchesRecount drives both oracles through a
// sequence of arbitrary informed sets — growing, shrinking and
// unrelated — and compares every station's TxProb after each Prepare.
func TestDensityOracleTxProbMatchesRecount(t *testing.T) {
	coords := make([]float64, 50)
	r := rng.New(4)
	for i := range coords {
		coords[i] = r.Range(0, 10)
	}
	line, err := network.New(geom.NewLine(coords), sinr.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	nets := map[string]*network.Network{
		"uniform-small": genUniform(t, 40, 8, 3),
		"uniform-grid":  genUniform(t, 200, 12, 5),
		"line":          line,
	}
	for name, net := range nets {
		t.Run(name, func(t *testing.T) {
			n := net.N()
			inc, ref := NewDensityOracle(net, 0.7), newRecountOracle(net, 0.7)
			informed := make([]bool, n)
			r := rng.New(11)
			for step := 0; step < 60; step++ {
				switch step % 4 {
				case 0: // unrelated set
					for i := range informed {
						informed[i] = r.Bernoulli(0.4)
					}
				case 1: // grow
					for i := range informed {
						informed[i] = informed[i] || r.Bernoulli(0.2)
					}
				case 2: // shrink
					for i := range informed {
						informed[i] = informed[i] && r.Bernoulli(0.7)
					}
				case 3: // unchanged
				}
				if step == 30 {
					clear(informed)
				}
				inc.Prepare(step, informed)
				ref.Prepare(step, informed)
				for i := 0; i < n; i++ {
					if g, w := inc.TxProb(i, step, 0), ref.TxProb(i, step, 0); g != w {
						t.Fatalf("step %d station %d (informed=%v): TxProb %v, recount %v", step, i, informed[i], g, w)
					}
				}
			}
		})
	}
}
