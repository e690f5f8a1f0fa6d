package coloring

import (
	"testing"

	"sinrcast/internal/network"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sinr"
)

// calibrationNets returns the network families the defaults must handle.
func calibrationNets(t testing.TB, seed uint64) map[string]*network.Network {
	t.Helper()
	nets := map[string]*network.Network{}
	for name, s := range map[string]string{
		"uniform-sparse": "uniform:n=128,density=6",
		"uniform-dense":  "uniform:n=256,density=24",
		"clusters":       "clusters:k=4,m=24,radius=0.08,gap=0.6",
		"path":           "path:n=48,frac=0.9",
		"expchain":       "expchain:n=48,first=0.5,ratio=0.75",
	} {
		spec, err := scenario.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		if nets[name], err = scenario.Generate(spec, sinr.DefaultParams(), seed); err != nil {
			t.Fatal(err)
		}
	}
	return nets
}

// TestCalibrationReport prints the invariant landscape; run with -v to
// inspect. It asserts only sanity (colors assigned, palette small).
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration report skipped in -short")
	}
	for name, net := range calibrationNets(t, 42) {
		par := DefaultParams(net.N(), net.Space.Growth(), net.Params.Eps)
		res, err := Run(net, par, 7)
		if err != nil {
			t.Fatal(err)
		}
		l1 := CheckLemma1(net, res.Colors)
		l2 := CheckLemma2(net, res.Colors)
		pal := Palette(res.Colors)
		quit := 0
		for _, ph := range res.QuitPhase {
			if ph >= 0 {
				quit++
			}
		}
		t.Logf("%-14s n=%3d rounds=%5d colors=%2d quitEarly=%3d  L1max=%.4f (C1=%.3f)  L2min=%.5f (2pmax=%.5f)",
			name, net.N(), res.Rounds, len(pal), quit, l1.MaxMass, par.C1, l2.MinBestMass, par.FinalColor())
		if len(pal) == 0 || len(pal) > par.NumColors() {
			t.Fatalf("%s: palette size %d out of range [1,%d]", name, len(pal), par.NumColors())
		}
	}
}
