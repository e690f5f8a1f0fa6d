package broadcast

import (
	"testing"

	"sinrcast/internal/netgen"
	"sinrcast/internal/network"
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

func genPath(t testing.TB, n int, seed uint64) *network.Network {
	t.Helper()
	net, err := netgen.Path(netgen.Config{Params: sinr.DefaultParams(), Seed: seed}, n, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func cfgFor(net *network.Network) Config {
	return DefaultConfig(net.N(), net.Space.Growth(), net.Params.Eps)
}

func TestConfigValidate(t *testing.T) {
	net := genPath(t, 8, 1)
	ok := cfgFor(net)
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"valid", func(c *Config) {}, false},
		{"zero TxRounds", func(c *Config) { c.TxRounds = 0 }, true},
		{"zero CProb", func(c *Config) { c.CProb = 0 }, true},
		{"bad MaxTxProb", func(c *Config) { c.MaxTxProb = 1.5 }, true},
		{"negative MaxRounds", func(c *Config) { c.MaxRounds = -1 }, true},
		{"invalid coloring", func(c *Config) { c.Coloring.CPrime = 0 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := ok
			tt.mutate(&c)
			if err := c.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestTxProbMonotoneAndCapped(t *testing.T) {
	net := genPath(t, 16, 1)
	cfg := cfgFor(net)
	p, err := newPlan(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo := p.txProb(cfg.Coloring.PStart())
	hi := p.txProb(cfg.Coloring.FinalColor())
	if lo <= 0 || hi <= lo {
		t.Fatalf("TxProb not monotone: lo=%v hi=%v", lo, hi)
	}
	if got := p.txProb(1e9); got != cfg.MaxTxProb {
		t.Fatalf("TxProb not capped: %v", got)
	}
}

func TestRunNoSSmallUniform(t *testing.T) {
	net := genUniform(t, 64, 8, 2)
	res, err := RunNoS(net, cfgFor(net), 3, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("not all informed after %d rounds", res.Rounds)
	}
	if res.InformTime[0] != 0 {
		t.Fatalf("source inform time = %d", res.InformTime[0])
	}
	for i, it := range res.InformTime {
		if it < 0 {
			t.Fatalf("station %d never informed but AllInformed=true", i)
		}
	}
	if res.Phases < 1 {
		t.Fatalf("Phases = %d", res.Phases)
	}
}

func TestRunNoSPath(t *testing.T) {
	net := genPath(t, 24, 3)
	res, err := RunNoS(net, cfgFor(net), 5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("path broadcast incomplete after %d rounds", res.Rounds)
	}
	// Monotonicity along the path: station k can only be informed after
	// some station within distance <= comm radius was. Weak sanity: the
	// far end is informed last or near-last.
	far := res.InformTime[net.N()-1]
	for i := 1; i < net.N()-1; i++ {
		if res.InformTime[i] > far+cfgFor(net).PhaseLen() {
			t.Fatalf("station %d informed after the path end by more than a phase", i)
		}
	}
}

func TestRunNoSErrors(t *testing.T) {
	net := genPath(t, 8, 1)
	cfg := cfgFor(net)
	if _, err := RunNoS(net, cfg, 1, -1, 0); err == nil {
		t.Fatal("want error for negative source")
	}
	if _, err := RunNoS(net, cfg, 1, 100, 0); err == nil {
		t.Fatal("want error for out-of-range source")
	}
	bad := cfg
	bad.TxRounds = 0
	if _, err := RunNoS(net, bad, 1, 0, 0); err == nil {
		t.Fatal("want error for invalid config")
	}
	wrongN := DefaultConfig(net.N()+5, 2, net.Params.Eps)
	if _, err := RunNoS(net, wrongN, 1, 0, 0); err == nil {
		t.Fatal("want error for config/network size mismatch")
	}
}

func TestRunSSmallUniform(t *testing.T) {
	net := genUniform(t, 64, 8, 7)
	res, err := RunS(net, cfgFor(net), 3, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("not all informed after %d rounds", res.Rounds)
	}
	// The dedicated source round happens right after the coloring:
	// every other station is informed strictly after it.
	colorLen := cfgFor(net).Coloring.TotalRounds()
	for i, it := range res.InformTime {
		if i == 0 {
			continue
		}
		if it < colorLen {
			t.Fatalf("station %d informed during coloring (%d < %d)", i, it, colorLen)
		}
	}
}

func TestRunSPathFasterThanNoS(t *testing.T) {
	// Theorem 1 vs Theorem 2: on a path (large D), SBroadcast's
	// O(D log n + log² n) must beat NoSBroadcast's O(D log² n).
	net := genPath(t, 32, 11)
	cfg := cfgFor(net)
	nos, err := RunNoS(net, cfg, 5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunS(net, cfg, 5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !nos.AllInformed || !s.AllInformed {
		t.Fatalf("incomplete: nos=%v s=%v", nos.AllInformed, s.AllInformed)
	}
	if s.Rounds >= nos.Rounds {
		t.Fatalf("SBroadcast (%d) not faster than NoSBroadcast (%d) on a path", s.Rounds, nos.Rounds)
	}
}

func TestRunSErrors(t *testing.T) {
	net := genPath(t, 8, 1)
	cfg := cfgFor(net)
	if _, err := RunS(net, cfg, 1, 99, 0); err == nil {
		t.Fatal("want error for bad source")
	}
	wrongN := DefaultConfig(net.N()+5, 2, net.Params.Eps)
	if _, err := RunS(net, wrongN, 1, 0, 0); err == nil {
		t.Fatal("want error for size mismatch")
	}
}

func TestBroadcastDeterministicInSeed(t *testing.T) {
	net := genUniform(t, 48, 8, 13)
	cfg := cfgFor(net)
	a, err := RunNoS(net, cfg, 21, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunNoS(net, cfg, 21, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds {
		t.Fatalf("rounds differ between identical seeds: %d vs %d", a.Rounds, b.Rounds)
	}
	for i := range a.InformTime {
		if a.InformTime[i] != b.InformTime[i] {
			t.Fatalf("inform times differ at station %d", i)
		}
	}
}

func TestBroadcastFromEveryCorner(t *testing.T) {
	// Broadcast must succeed regardless of source position.
	net := genUniform(t, 48, 8, 17)
	cfg := cfgFor(net)
	for _, src := range []int{0, net.N() / 2, net.N() - 1} {
		res, err := RunS(net, cfg, 3, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllInformed {
			t.Fatalf("source %d: incomplete after %d rounds", src, res.Rounds)
		}
		if res.InformTime[src] != 0 {
			t.Fatalf("source %d: inform time %d", src, res.InformTime[src])
		}
	}
}

func TestRunNoSExponentialChain(t *testing.T) {
	// The headline case: granularity-exponential network. The algorithm
	// must complete without any dependence on Rs.
	net, err := netgen.ExponentialChain(netgen.Config{Params: sinr.DefaultParams(), Seed: 1}, 32, 0.5, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunNoS(net, cfgFor(net), 9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("chain broadcast incomplete after %d rounds", res.Rounds)
	}
}

func TestBudgetRespected(t *testing.T) {
	// With an absurdly small budget the run must stop and report
	// failure rather than loop.
	net := genPath(t, 24, 3)
	cfg := cfgFor(net)
	cfg.MaxRounds = 10
	res, err := RunNoS(net, cfg, 5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllInformed {
		t.Fatal("cannot inform a 24-path in 10 rounds")
	}
	if res.Rounds > 10 {
		t.Fatalf("budget exceeded: %d", res.Rounds)
	}
}
