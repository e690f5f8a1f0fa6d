package coloring

import (
	"testing"

	"sinrcast/internal/scenario"
	"sinrcast/internal/sinr"
)

// TestQuitPhaseHistogram is a diagnostic: -v prints when stations quit.
func TestQuitPhaseHistogram(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	net, err := scenario.Generate(scenario.Spec{Family: "uniform", Params: map[string]float64{"n": 128, "density": 6}}, sinr.DefaultParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	par := DefaultParams(net.N(), net.Space.Growth(), net.Params.Eps)
	t.Logf("phases=%d dtLen=%d dtNeed=%d poLen=%d poNeed=%d pstart=%.5f pmax=%.5f ceps=%.0f",
		par.Phases(), par.DTLen(), par.DTNeed(), par.POLen(), par.PONeed(), par.PStart(), par.PMax, par.CEps)
	res, err := Run(net, par, 7)
	if err != nil {
		t.Fatal(err)
	}
	hist := make([]int, par.Phases()+1)
	for _, ph := range res.QuitPhase {
		if ph < 0 {
			hist[par.Phases()]++
		} else {
			hist[ph]++
		}
	}
	t.Logf("quit-phase histogram (last bucket = survived to 2pmax): %v", hist)
	l2 := CheckLemma2(net, res.Colors)
	t.Logf("weakest station %d: bestColor=%.5f mass=%.5f  degree(comm)=%d",
		l2.Station, l2.BestColor, l2.MinBestMass, net.Degree(l2.Station))
}
