package baseline

import (
	"math"
	"testing"
	"testing/quick"

	"sinrcast/internal/rng"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sinr"
)

func TestPropertyPoliciesReturnValidProbabilities(t *testing.T) {
	net, err := scenario.Generate(scenario.Spec{Family: "uniform", Params: map[string]float64{"n": 40, "density": 8}}, sinr.DefaultParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	gtd, err := NewGridTDMA(net)
	if err != nil {
		t.Fatal(err)
	}
	policies := []Policy{
		NewDecay(net.N()),
		NewDaumStyle(net),
		NewDensityOracle(net, 0),
		gtd,
	}
	var informed []int
	r := rng.New(9)
	for i := 0; i < net.N(); i++ {
		if r.Bernoulli(0.5) {
			informed = append(informed, i)
		}
	}
	for _, pol := range policies {
		for _, i := range informed {
			pol.Inform(i)
		}
		if err := quick.Check(func(tRaw, atRaw uint16, iRaw uint8) bool {
			tt := int(tRaw) % 10000
			at := int(atRaw) % (tt + 1)
			i := informed[int(iRaw)%len(informed)]
			p := pol.TxProb(i, tt, at)
			return p >= 0 && p <= 1
		}, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
	}
}

func TestPropertyDecaySweepCoversAllLevels(t *testing.T) {
	d := NewDecay(64) // L = 7
	seen := map[float64]bool{}
	for k := 0; k < d.L; k++ {
		seen[d.TxProb(0, 100+k, 100)] = true
	}
	if len(seen) != d.L {
		t.Fatalf("sweep hit %d distinct levels, want %d", len(seen), d.L)
	}
	for p := range seen {
		if p <= 0 || p > 0.5 {
			t.Fatalf("level %v out of (0, 0.5]", p)
		}
	}
}

// TestSweepMatchesPow pins the sweep's Ldexp form to the 2^-(1+k) it
// stands for, bit for bit, over every level any realistic L reaches.
func TestSweepMatchesPow(t *testing.T) {
	s := sweep{L: 1200}
	for k := 0; k < s.L; k++ {
		if got, want := s.TxProb(0, k, 0), math.Pow(2, -float64(1+k)); got != want {
			t.Fatalf("level %d: %v, want %v", k, got, want)
		}
	}
}
