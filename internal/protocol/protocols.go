package protocol

import (
	"math"

	"sinrcast/internal/apps/alert"
	"sinrcast/internal/apps/consensus"
	"sinrcast/internal/apps/leader"
	"sinrcast/internal/apps/wakeup"
	"sinrcast/internal/baseline"
	"sinrcast/internal/broadcast"
	"sinrcast/internal/network"
	"sinrcast/internal/registry"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

// The built-in protocols: the paper's broadcast algorithms (§4), the
// multi-source wake-up engine, the four baseline flood policies, and
// the §5 applications through the result adapter. Each maps its
// parameters onto one library runner — broadcast.RunNoS/RunS/
// RunNoSMulti, baseline.RunFloodOn, apps/{wakeup,consensus,leader,
// alert}.Run — and adds no simulation logic of its own.

// sourceParam declares the broadcasting-station index shared by all
// single-source protocols.
func sourceParam() Param {
	return Param{Name: "source", Doc: "broadcasting station index", Default: 0, Min: 0, Max: registry.MaxInt, Int: true}
}

// source resolves and checks the source parameter against the network
// — the spec-vs-network half of validation that static bounds cannot
// express.
func source(net *network.Network, b Build) (int, error) {
	s := b.Int("source")
	if s >= net.N() {
		return 0, registry.SpecErrorf("protocol: source=%d outside [0,%d)", s, net.N())
	}
	return s, nil
}

// tuningParams declares the knobs shared by the coloring-backbone
// broadcast protocols (mapped onto broadcast.Config). Defaults are
// read from broadcast.DefaultConfig — the canonical calibration — so
// a registry run with no overrides can never drift from the direct
// entry points if that calibration is ever retuned. (TxRounds, CProb
// and MaxTxProb do not depend on the n/gamma/eps arguments.)
func tuningParams() []Param {
	def := broadcast.DefaultConfig(16, 2, sinr.DefaultParams().Eps)
	return []Param{
		{Name: "txrounds", Doc: "dissemination-part length multiplier (×lg² n rounds)", Default: def.TxRounds, Min: 0.1, Max: 64},
		{Name: "cprob", Doc: "Fact 11 transmission-probability divisor", Default: def.CProb, Min: 0.1, Max: 1e6},
		{Name: "maxtxprob", Doc: "per-round transmission probability cap", Default: def.MaxTxProb, Min: 1e-6, Max: 1},
		{Name: "gamma", Doc: "growth degree for calibration (0 = the network's own)", Default: 0, Min: 0, Max: 16},
		{Name: "budgetmul", Doc: "round-budget multiplier over the derived default", Default: 1, Min: 0.01, Max: 1000},
	}
}

// budgetParam declares the explicit round budget of the flood
// baselines (RunFlood's budget argument).
func budgetParam() Param {
	return Param{Name: "budget", Doc: "round budget (0 = derived default)", Default: 0, Min: 0, Max: registry.MaxInt, Int: true}
}

// bcastConfig maps the tuning parameters onto a calibrated
// broadcast.Config for the network, threading the run's channel.
func bcastConfig(net *network.Network, b Build) broadcast.Config {
	gamma := b.Float("gamma")
	if gamma <= 0 {
		gamma = net.Space.Growth()
	}
	cfg := broadcast.DefaultConfig(net.N(), gamma, net.Params.Eps)
	cfg.TxRounds = b.Float("txrounds")
	cfg.CProb = b.Float("cprob")
	cfg.MaxTxProb = b.Float("maxtxprob")
	cfg.Channel = b.Channel()
	if m := b.Float("budgetmul"); m != 1 {
		cfg.MaxRounds = int(math.Ceil(m * float64(broadcast.Budget(cfg, net))))
	}
	return cfg
}

// spread returns k station indices spread evenly over [0, n): the
// deterministic placement used by the multi-source protocols.
func spread(n, k int) []int {
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = i * n / k
	}
	return out
}

func init() {
	Register(Protocol{
		Name:   "nos",
		Doc:    "NoSBroadcast (§4.1, Thm 1): non-spontaneous wake-up, phased coloring+dissemination, O(D·lg² n)",
		Params: append([]Param{sourceParam()}, tuningParams()...),
		Run: func(net *network.Network, b Build) (*broadcast.Result, error) {
			src, err := source(net, b)
			if err != nil {
				return nil, err
			}
			return broadcast.RunNoS(net, bcastConfig(net, b), b.Seed, src, 1)
		},
	})

	Register(Protocol{
		Name:   "s",
		Doc:    "SBroadcast (§4.2, Thm 2): spontaneous wake-up, one shared coloring backbone, O(D·lg n + lg² n)",
		Params: append([]Param{sourceParam()}, tuningParams()...),
		Run: func(net *network.Network, b Build) (*broadcast.Result, error) {
			src, err := source(net, b)
			if err != nil {
				return nil, err
			}
			return broadcast.RunS(net, bcastConfig(net, b), b.Seed, src, 1)
		},
	})

	Register(Protocol{
		Name: "nosmulti",
		Doc:  "multi-source NoSBroadcast: k evenly spread stations hold the message at round 0",
		Params: append([]Param{
			{Name: "sources", Doc: "number of initially informed stations", Default: 2, Min: 1, Max: registry.MaxInt, Int: true},
		}, tuningParams()...),
		Run: func(net *network.Network, b Build) (*broadcast.Result, error) {
			k := b.Int("sources")
			if k > net.N() {
				return nil, registry.SpecErrorf("protocol: nosmulti sources=%d exceeds n=%d", k, net.N())
			}
			wakeAt := make([]int, net.N())
			for i := range wakeAt {
				wakeAt[i] = -1
			}
			for _, s := range spread(net.N(), k) {
				wakeAt[s] = 0
			}
			return broadcast.RunNoSMulti(net, bcastConfig(net, b), b.Seed, wakeAt, 1)
		},
	})

	Register(Protocol{
		Name: "wakeup",
		Doc:  "ad hoc wake-up (§5): staggered adversarial wake-ups, rounds = span from first wake-up to all awake",
		Params: append([]Param{
			{Name: "wakers", Doc: "number of spontaneously woken stations", Default: 3, Min: 1, Max: registry.MaxInt, Int: true},
			{Name: "stagger", Doc: "wake-up spacing in phase lengths (waker k wakes at k·stagger·phase)", Default: 0.5, Min: 0, Max: 100},
		}, tuningParams()...),
		Run: func(net *network.Network, b Build) (*broadcast.Result, error) {
			cfg := bcastConfig(net, b)
			k := b.Int("wakers")
			if k > net.N() {
				return nil, registry.SpecErrorf("protocol: wakeup wakers=%d exceeds n=%d", k, net.N())
			}
			wakeAt := make([]int, net.N())
			for i := range wakeAt {
				wakeAt[i] = -1
			}
			step := b.Float("stagger") * float64(cfg.PhaseLen())
			for i, s := range spread(net.N(), k) {
				wakeAt[s] = int(float64(i) * step)
			}
			res, err := wakeup.Run(net, cfg, b.Seed, wakeup.Schedule{WakeAt: wakeAt})
			if err != nil {
				return nil, err
			}
			return &broadcast.Result{
				Rounds:      res.Span,
				AllInformed: res.AllAwake,
				InformTime:  res.AwakeTime,
				Phases:      res.Broadcast.Phases,
				Metrics:     res.Broadcast.Metrics,
			}, nil
		},
	})

	// The baseline floods differ only in their policy, built per run.
	// They drive the channel through RunFloodOn's sim.Engine like every
	// other protocol, so a traced or observed channel sees only the busy
	// rounds of a subset resolver.
	floods := []struct {
		name, doc string
		extra     []Param
		policy    func(*network.Network, Build) (baseline.Policy, error)
	}{
		{"decay", "Decay flood (Bar-Yehuda et al.): probability sweep 2^-1..2^-L, L = Θ(lg n), geometry-oblivious", nil,
			func(net *network.Network, _ Build) (baseline.Policy, error) { return baseline.NewDecay(net.N()), nil }},
		{"daum", "Daum-style flood [5]: sweep spans Θ(lg n + α·lg Rs) levels — the granularity dependence the paper removes", nil,
			func(net *network.Network, _ Build) (baseline.Policy, error) { return baseline.NewDaumStyle(net), nil }},
		{"oracle", "density-oracle flood ([11]-style): genie-aided, transmit with ~c/(informed stations within distance 1)",
			[]Param{{Name: "c", Doc: "aggressiveness constant (0 = the policy's default)", Default: 0, Min: 0, Max: 1e6}},
			func(net *network.Network, b Build) (baseline.Policy, error) {
				return baseline.NewDensityOracle(net, b.Float("c")), nil
			}},
		{"tdma", "grid-TDMA flood ([14]-style): GPS cells scheduled round-robin, perfect in-cell coordination", nil,
			func(net *network.Network, _ Build) (baseline.Policy, error) { return baseline.NewGridTDMA(net) }},
	}
	for _, f := range floods {
		Register(Protocol{
			Name:   f.name,
			Doc:    f.doc,
			Params: append([]Param{sourceParam(), budgetParam()}, f.extra...),
			Run: func(net *network.Network, b Build) (*broadcast.Result, error) {
				src, err := source(net, b)
				if err != nil {
					return nil, err
				}
				pol, err := f.policy(net, b)
				if err != nil {
					return nil, err
				}
				phys, err := sim.NewChannel(b.Channel(), net)
				if err != nil {
					return nil, err
				}
				return baseline.RunFloodOn(net, pol, b.Seed, src, b.Int("budget"), phys)
			},
		})
	}

	Register(Protocol{
		Name: "consensus",
		Doc:  "consensus (§5): agree on the minimum of per-station messages in {0..x}; rounds = full schedule, informed = correct",
		// The windowfactor default is read from consensus.DefaultConfig
		// — the canonical calibration — for the same no-drift reason as
		// tuningParams.
		Params: []Param{
			{Name: "x", Doc: "message-domain bound (messages are (37i+100) mod (x+1))", Default: 255, Min: 1, Max: registry.MaxInt, Int: true},
			{Name: "windowfactor", Doc: "per-bit flood-window scale",
				Default: consensus.DefaultConfig(16, 2, sinr.DefaultParams().Eps, 1).WindowFactor, Min: 1, Max: 1e4},
		},
		Run: func(net *network.Network, b Build) (*broadcast.Result, error) {
			x := int64(b.Int("x"))
			cfg := consensus.DefaultConfig(net.N(), net.Space.Growth(), net.Params.Eps, x)
			cfg.WindowFactor = b.Float("windowfactor")
			cfg.Channel = b.Channel()
			msgs := make([]int64, net.N())
			for i := range msgs {
				msgs[i] = int64(i*37+100) % (x + 1)
			}
			res, err := consensus.Run(net, cfg, b.Seed, msgs)
			if err != nil {
				return nil, err
			}
			return &broadcast.Result{
				Rounds:      res.Rounds,
				AllInformed: res.Correct,
				Metrics:     res.Metrics,
			}, nil
		},
	})

	Register(Protocol{
		Name: "leader",
		Doc:  "leader election (§5): consensus on random IDs from {1..n³}; informed = unique leader elected",
		Run: func(net *network.Network, b Build) (*broadcast.Result, error) {
			cfg := consensus.DefaultConfig(net.N(), net.Space.Growth(), net.Params.Eps, 1)
			cfg.Channel = b.Channel()
			res, err := leader.Run(net, cfg, b.Seed)
			if err != nil {
				return nil, err
			}
			return &broadcast.Result{
				Rounds:      res.Consensus.Rounds,
				AllInformed: res.Leader >= 0 && res.Consensus.Correct,
				Metrics:     res.Consensus.Metrics,
			}, nil
		},
	})

	Register(Protocol{
		Name: "alert",
		Doc:  "alert protocol (§1.3): k stations raise an alert (0 = negative case, must stay silent); informed = all verdicts correct",
		Params: []Param{
			{Name: "raised", Doc: "number of stations at which the alert is raised", Default: 1, Min: 0, Max: registry.MaxInt, Int: true},
		},
		Run: func(net *network.Network, b Build) (*broadcast.Result, error) {
			k := b.Int("raised")
			if k > net.N() {
				return nil, registry.SpecErrorf("protocol: alert raised=%d exceeds n=%d", k, net.N())
			}
			cfg := alert.DefaultConfig(net.N(), net.Space.Growth(), net.Params.Eps)
			cfg.Channel = b.Channel()
			raised := make([]bool, net.N())
			for _, s := range spread(net.N(), k) {
				raised[s] = true
			}
			res, err := alert.Run(net, cfg, b.Seed, raised)
			if err != nil {
				return nil, err
			}
			return &broadcast.Result{
				Rounds:      res.Rounds,
				AllInformed: res.Correct,
				Metrics:     res.Metrics,
			}, nil
		},
	})
}
