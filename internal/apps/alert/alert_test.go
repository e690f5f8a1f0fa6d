package alert

import (
	"testing"

	"sinrcast/internal/network"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sinr"
)

func genNet(t testing.TB, n int, seed uint64) *network.Network {
	t.Helper()
	net, err := scenario.Generate(scenario.Spec{Family: "uniform", Params: map[string]float64{"n": float64(n), "density": 8}}, sinr.DefaultParams(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func cfgFor(net *network.Network) Config {
	return DefaultConfig(net.N(), net.Space.Growth(), net.Params.Eps)
}

func TestAlertPositiveSingleRaiser(t *testing.T) {
	net := genNet(t, 48, 3)
	raised := make([]bool, net.N())
	raised[net.N()-1] = true
	res, err := Run(net, cfgFor(net), 7, raised)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("single-raiser alert not delivered to everyone")
	}
	for i, out := range res.Outputs {
		if !out {
			t.Fatalf("station %d missed the alert", i)
		}
	}
}

func TestAlertPositiveManyRaisers(t *testing.T) {
	net := genNet(t, 48, 5)
	raised := make([]bool, net.N())
	for i := 0; i < net.N(); i += 7 {
		raised[i] = true
	}
	res, err := Run(net, cfgFor(net), 9, raised)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("multi-raiser alert failed")
	}
}

func TestAlertNegativeStaysSilent(t *testing.T) {
	net := genNet(t, 48, 7)
	raised := make([]bool, net.N())
	res, err := Run(net, cfgFor(net), 11, raised)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("false alert reported")
	}
	for i, out := range res.Outputs {
		if out {
			t.Fatalf("station %d fabricated an alert", i)
		}
	}
	if res.FloodTransmissions != 0 {
		t.Fatalf("negative case transmitted %d times in the flood window", res.FloodTransmissions)
	}
}

func TestAlertErrors(t *testing.T) {
	net := genNet(t, 16, 9)
	cfg := cfgFor(net)
	if _, err := Run(net, cfg, 1, make([]bool, 3)); err == nil {
		t.Fatal("want error for wrong flag count")
	}
	bad := cfg
	bad.CProb = 0
	if _, err := Run(net, bad, 1, make([]bool, net.N())); err == nil {
		t.Fatal("want error for invalid config")
	}
	wrongN := DefaultConfig(net.N()+1, 2, net.Params.Eps)
	if _, err := Run(net, wrongN, 1, make([]bool, net.N())); err == nil {
		t.Fatal("want error for size mismatch")
	}
}

func TestAlertDeterministic(t *testing.T) {
	net := genNet(t, 32, 11)
	raised := make([]bool, net.N())
	raised[0] = true
	a, err := Run(net, cfgFor(net), 5, raised)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(net, cfgFor(net), 5, raised)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.Transmissions != b.Metrics.Transmissions {
		t.Fatal("nondeterministic alert run")
	}
}

func TestConfigValidateTable(t *testing.T) {
	net := genNet(t, 16, 13)
	ok := cfgFor(net)
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"valid", func(c *Config) {}, false},
		{"negative window", func(c *Config) { c.WindowRounds = -1 }, true},
		{"no sizing", func(c *Config) { c.WindowFactor = 0 }, true},
		{"explicit window", func(c *Config) { c.WindowRounds = 500; c.WindowFactor = 0 }, false},
		{"bad cprob", func(c *Config) { c.CProb = -1 }, true},
		{"bad coloring", func(c *Config) { c.Coloring.N = 0 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := ok
			tt.mutate(&c)
			if err := c.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}
