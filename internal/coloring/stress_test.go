package coloring

import (
	"testing"

	"sinrcast/internal/network"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sinr"
)

// TestStressDense verifies that in genuinely dense deployments the
// switch-off mechanism engages and keeps Lemma 1 bounded while Lemma 2
// retains a constant fraction of 2·pmax.
func TestStressDense(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	dense, err := scenario.Generate(scenario.Spec{Family: "uniform", Params: map[string]float64{"n": 384, "density": 60}}, sinr.DefaultParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := scenario.Generate(scenario.Spec{Family: "expchain", Params: map[string]float64{"n": 192, "first": 0.5, "ratio": 0.7}}, sinr.DefaultParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, net := range map[string]*network.Network{
		"dense384": dense,
		"chain192": chain,
	} {
		par := DefaultParams(net.N(), net.Space.Growth(), net.Params.Eps)
		res, err := Run(net, par, 11)
		if err != nil {
			t.Fatal(err)
		}
		l1 := CheckLemma1(net, res.Colors)
		l2 := CheckLemma2(net, res.Colors)
		quit := 0
		for _, ph := range res.QuitPhase {
			if ph >= 0 {
				quit++
			}
		}
		t.Logf("%-9s n=%d rounds=%d quits=%d L1max=%.3f L2min=%.5f (2pmax=%.5f)",
			name, net.N(), res.Rounds, quit, l1.MaxMass, l2.MinBestMass, par.FinalColor())
		if l1.MaxMass > 1.0 {
			t.Errorf("%s: Lemma 1 mass %.3f exceeds 1.0", name, l1.MaxMass)
		}
		if l2.MinBestMass < par.FinalColor()/8 {
			t.Errorf("%s: Lemma 2 mass %.5f below 2pmax/8", name, l2.MinBestMass)
		}
	}
}
