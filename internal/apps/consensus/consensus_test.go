package consensus

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

func cfgFor(net *network.Network, x int64) Config {
	return DefaultConfig(net.N(), net.Space.Growth(), net.Params.Eps, x)
}

func TestConfigValidate(t *testing.T) {
	net := genNet(t, 16, 1)
	ok := cfgFor(net, 15)
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"valid", func(c *Config) {}, false},
		{"negative X", func(c *Config) { c.X = -1 }, true},
		{"negative window", func(c *Config) { c.WindowRounds = -1 }, true},
		{"no window sizing", func(c *Config) { c.WindowFactor = 0 }, true},
		{"explicit window ok", func(c *Config) { c.WindowRounds = 100; c.WindowFactor = 0 }, false},
		{"bad cprob", func(c *Config) { c.CProb = 0 }, true},
		{"bad maxtx", func(c *Config) { c.MaxTxProb = 2 }, true},
		{"bad coloring", func(c *Config) { c.Coloring.CPrime = 0 }, true},
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

func TestBits(t *testing.T) {
	net := genNet(t, 16, 1)
	tests := []struct {
		x    int64
		want int
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {255, 8}, {256, 9},
	}
	for _, tt := range tests {
		c := cfgFor(net, tt.x)
		if got := c.Bits(); got != tt.want {
			t.Fatalf("Bits(X=%d) = %d, want %d", tt.x, got, tt.want)
		}
	}
}

func TestConsensusAgreesOnMinimum(t *testing.T) {
	net := genNet(t, 32, 3)
	cfg := cfgFor(net, 15)
	msgs := make([]int64, net.N())
	for i := range msgs {
		msgs[i] = int64(5 + i%9) // min = 5
	}
	res, err := Run(net, cfg, 7, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreed {
		t.Fatalf("no agreement: %v", res.Values[:8])
	}
	if !res.Correct {
		t.Fatalf("agreed on %d, want 5", res.Values[0])
	}
}

func TestConsensusAllZero(t *testing.T) {
	net := genNet(t, 24, 5)
	cfg := cfgFor(net, 7)
	msgs := make([]int64, net.N())
	res, err := Run(net, cfg, 9, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Values[0] != 0 {
		t.Fatalf("all-zero consensus: agreed=%v value=%d", res.Agreed, res.Values[0])
	}
}

func TestConsensusAllMax(t *testing.T) {
	// All-ones value: every window is silent, everyone appends 1.
	net := genNet(t, 24, 6)
	cfg := cfgFor(net, 7)
	msgs := make([]int64, net.N())
	for i := range msgs {
		msgs[i] = 7
	}
	res, err := Run(net, cfg, 9, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Values[0] != 7 {
		t.Fatalf("all-max consensus: agreed=%v value=%d", res.Agreed, res.Values[0])
	}
}

func TestConsensusSingleHolderOfMinimum(t *testing.T) {
	// Exactly one station holds the minimum: the hardest dissemination
	// case (a single initiator per 0-window).
	net := genNet(t, 32, 7)
	cfg := cfgFor(net, 31)
	msgs := make([]int64, net.N())
	for i := range msgs {
		msgs[i] = 31
	}
	msgs[net.N()-1] = 2
	res, err := Run(net, cfg, 11, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("agreed=%v values[0]=%d, want 2", res.Agreed, res.Values[0])
	}
}

func TestConsensusRoundsScaleWithBits(t *testing.T) {
	net := genNet(t, 24, 9)
	short := cfgFor(net, 1)
	long := cfgFor(net, 255)
	msgs := make([]int64, net.N())
	a, err := Run(net, short, 3, msgs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(net, long, 3, msgs)
	if err != nil {
		t.Fatal(err)
	}
	// 8 windows vs 1 window over the same backbone.
	if b.Rounds <= a.Rounds {
		t.Fatalf("rounds did not grow with bits: %d vs %d", a.Rounds, b.Rounds)
	}
}

func TestConsensusErrors(t *testing.T) {
	net := genNet(t, 16, 11)
	cfg := cfgFor(net, 7)
	if _, err := Run(net, cfg, 1, make([]int64, 3)); err == nil {
		t.Fatal("want error for wrong message count")
	}
	bad := make([]int64, net.N())
	bad[0] = 99 // above X
	if _, err := Run(net, cfg, 1, bad); err == nil {
		t.Fatal("want error for out-of-domain message")
	}
	neg := make([]int64, net.N())
	neg[0] = -1
	if _, err := Run(net, cfg, 1, neg); err == nil {
		t.Fatal("want error for negative message")
	}
	wrongN := DefaultConfig(net.N()+1, 2, net.Params.Eps, 7)
	if _, err := Run(net, wrongN, 1, make([]int64, net.N())); err == nil {
		t.Fatal("want error for config size mismatch")
	}
}

func TestConsensusDeterministic(t *testing.T) {
	net := genNet(t, 24, 13)
	cfg := cfgFor(net, 15)
	msgs := make([]int64, net.N())
	for i := range msgs {
		msgs[i] = int64(i % 16)
	}
	a, err := Run(net, cfg, 5, msgs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(net, cfg, 5, msgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("nondeterministic at station %d", i)
		}
	}
}
