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

// recountOracle is the reference density oracle: every TxProb
// recounts the informed stations in the station's unit ball from
// scratch, O(n) per call.
type recountOracle struct {
	net      *network.Network
	C        float64
	informed []bool
}

func newRecountOracle(net *network.Network, c float64) *recountOracle {
	if c <= 0 {
		c = 0.5
	}
	return &recountOracle{net: net, C: c, informed: make([]bool, net.N())}
}

func (o *recountOracle) Name() string { return "density-oracle" }

func (o *recountOracle) Inform(i int) { o.informed[i] = true }

func (o *recountOracle) TxProb(i, _, _ int) float64 {
	d := 0
	for j, inf := range o.informed {
		if inf && o.net.Space.Dist(i, j) <= 1 {
			d++
		}
	}
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

// TestDensityOracleTxProbMatchesRecount informs both oracles of the
// stations in a random order and compares every informed station's
// TxProb after each Inform.
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
			order := rng.New(11).Perm(n)
			for k, j := range order {
				inc.Inform(j)
				ref.Inform(j)
				for _, i := range order[:k+1] {
					if g, w := inc.TxProb(i, k, 0), ref.TxProb(i, k, 0); g != w {
						t.Fatalf("after %d informs, station %d: TxProb %v, recount %v", k+1, i, g, w)
					}
				}
			}
		})
	}
}
