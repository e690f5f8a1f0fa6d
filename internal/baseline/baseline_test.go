package baseline

import (
	"math"
	"reflect"
	"testing"

	"sinrcast/internal/netgen"
	"sinrcast/internal/network"
	"sinrcast/internal/rng"
	"sinrcast/internal/sinr"
)

func genUniform(t testing.TB, n int, density float64, seed uint64) *network.Network {
	t.Helper()
	net, err := netgen.Uniform(netgen.Config{Params: sinr.DefaultParams(), Seed: seed}, n, density)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestDecayLevels(t *testing.T) {
	d := NewDecay(256)
	if d.L != 9 {
		t.Fatalf("L = %d, want 9", d.L)
	}
	if NewDecay(1).L < 2 {
		t.Fatal("L floor violated")
	}
	// The sweep starts at 1/2 and halves each round.
	if p := d.TxProb(0, 10, 10); p != 0.5 {
		t.Fatalf("first level = %v", p)
	}
	if p := d.TxProb(0, 11, 10); p != 0.25 {
		t.Fatalf("second level = %v", p)
	}
	// Wraps after L rounds.
	if p := d.TxProb(0, 10+d.L, 10); p != 0.5 {
		t.Fatalf("wrap level = %v", p)
	}
	if d.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestDaumStyleLevelsGrowWithGranularity(t *testing.T) {
	cfg := netgen.Config{Params: sinr.DefaultParams(), Seed: 1}
	smooth, err := netgen.Path(cfg, 32, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	rough, err := netgen.ExponentialChain(cfg, 32, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ls := NewDaumStyle(smooth).L
	lr := NewDaumStyle(rough).L
	if lr <= ls {
		t.Fatalf("levels should grow with Rs: smooth=%d rough=%d", ls, lr)
	}
	// Exponential chain with ratio 1/2 and 32 stations: Rs ~ 2^30, so
	// levels ~ alpha*30 + log n.
	if lr < 60 {
		t.Fatalf("rough levels = %d, want >= 60", lr)
	}
}

func TestRunFloodDecayUniform(t *testing.T) {
	net := genUniform(t, 64, 8, 3)
	res, err := RunFlood(net, NewDecay(net.N()), 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("decay flood incomplete after %d rounds", res.Rounds)
	}
	if res.InformTime[0] != 0 {
		t.Fatal("source inform time wrong")
	}
}

func TestRunFloodDensityOracle(t *testing.T) {
	net := genUniform(t, 64, 8, 4)
	res, err := RunFlood(net, NewDensityOracle(net, 0), 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("oracle flood incomplete after %d rounds", res.Rounds)
	}
}

func TestRunFloodGridTDMA(t *testing.T) {
	net := genUniform(t, 64, 8, 5)
	g, err := NewGridTDMA(net)
	if err != nil {
		t.Fatal(err)
	}
	if g.Period() < 4 {
		t.Fatalf("period = %d, want >= 4", g.Period())
	}
	res, err := RunFlood(net, g, 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("tdma flood incomplete after %d rounds", res.Rounds)
	}
}

// TestGridTDMAOneTransmitterPerCell informs the stations in a random
// order and checks after each Inform that, in every slot, exactly the
// lowest informed station of each due cell transmits.
func TestGridTDMAOneTransmitterPerCell(t *testing.T) {
	net := genUniform(t, 64, 8, 6)
	g, err := NewGridTDMA(net)
	if err != nil {
		t.Fatal(err)
	}
	informed := make([]bool, net.N())
	for _, j := range rng.New(6).Perm(net.N()) {
		g.Inform(j)
		informed[j] = true
		for tr := 0; tr < g.Period(); tr++ {
			want := map[int32]int{} // due cell -> lowest informed station
			for i := net.N() - 1; i >= 0; i-- {
				if informed[i] && g.slot[i] == tr {
					want[g.cell[i]] = i
				}
			}
			got := map[int32]int{}
			for i := 0; i < net.N(); i++ {
				if p := g.TxProb(i, tr, 0); p == 1 {
					if _, dup := got[g.cell[i]]; dup {
						t.Fatalf("cell %d has two transmitters in slot %d", g.cell[i], tr)
					}
					got[g.cell[i]] = i
				} else if p != 0 {
					t.Fatalf("station %d: TxProb %v, want 0 or 1", i, p)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("slot %d after informing %d: transmitters %v, want %v", tr, j, got, want)
			}
		}
	}
}

func TestDensityOracleInform(t *testing.T) {
	net := genUniform(t, 32, 8, 7)
	o := NewDensityOracle(net, 0.5)
	o.Inform(0)
	// Only station 0 informed: its density is 1.
	if p := o.TxProb(0, 0, 0); p != 0.5 {
		t.Fatalf("lone station prob = %v, want 0.5", p)
	}
	// Probability never exceeds 1 even with C > density.
	o2 := NewDensityOracle(net, 10)
	o2.Inform(0)
	if p := o2.TxProb(0, 0, 0); p != 1 {
		t.Fatalf("capped prob = %v", p)
	}
}

func TestRunFloodErrors(t *testing.T) {
	net := genUniform(t, 16, 8, 8)
	if _, err := RunFlood(net, NewDecay(16), 1, -1, 0); err == nil {
		t.Fatal("want error for bad source")
	}
	if _, err := RunFlood(net, NewDecay(16), 1, 0, -5); err == nil {
		t.Fatal("want error for negative budget")
	}
}

func TestRunFloodBudgetStops(t *testing.T) {
	net := genUniform(t, 64, 8, 9)
	res, err := RunFlood(net, NewDecay(net.N()), 1, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllInformed {
		t.Fatal("64 stations cannot be informed in 3 rounds")
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
}

func TestRunFloodDeterministic(t *testing.T) {
	net := genUniform(t, 48, 8, 10)
	a, err := RunFlood(net, NewDecay(net.N()), 77, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFlood(net, NewDecay(net.N()), 77, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds {
		t.Fatalf("nondeterministic: %d vs %d", a.Rounds, b.Rounds)
	}
}

func TestDaumSlowerOnRoughNetwork(t *testing.T) {
	// E6 shape in miniature: on an exponential chain the Daum-style
	// sweep pays for its extra levels relative to plain decay sized for
	// the same n.
	cfg := netgen.Config{Params: sinr.DefaultParams(), Seed: 2}
	chain, err := netgen.ExponentialChain(cfg, 24, 0.5, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	daum, err := RunFlood(chain, NewDaumStyle(chain), 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !daum.AllInformed {
		t.Fatalf("daum incomplete after %d rounds", daum.Rounds)
	}
	dec, err := RunFlood(chain, NewDecay(chain.N()), 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.AllInformed {
		t.Fatalf("decay incomplete after %d rounds", dec.Rounds)
	}
	if daum.Rounds <= dec.Rounds {
		t.Logf("note: daum=%d decay=%d (levels daum=%d decay=%d)",
			daum.Rounds, dec.Rounds, NewDaumStyle(chain).L, NewDecay(chain.N()).L)
	}
	lvl := NewDaumStyle(chain).L
	if lvl < int(3*math.Log2(1000)) {
		t.Fatalf("expected many levels on rough chain, got %d", lvl)
	}
}
