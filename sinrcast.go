package sinrcast

import (
	"sinrcast/internal/apps/alert"
	"sinrcast/internal/apps/consensus"
	"sinrcast/internal/apps/leader"
	"sinrcast/internal/apps/wakeup"
	"sinrcast/internal/baseline"
	"sinrcast/internal/broadcast"
	"sinrcast/internal/coloring"
	"sinrcast/internal/geom"
	"sinrcast/internal/netgen"
	"sinrcast/internal/network"
	"sinrcast/internal/protocol"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sinr"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Physical holds the SINR model parameters (α, β, N, ε).
	Physical = sinr.Params
	// Point is a planar position.
	Point = geom.Point
	// Space is a finite bounded-growth metric space.
	Space = geom.Space
	// Network is a deployment plus its communication graph.
	Network = network.Network
	// BroadcastConfig tunes the paper's broadcast algorithms.
	BroadcastConfig = broadcast.Config
	// BroadcastResult reports a broadcast/flood execution.
	BroadcastResult = broadcast.Result
	// ColoringParams tunes StabilizeProbability (§3, Algorithm 1).
	ColoringParams = coloring.Params
	// ColoringResult is a computed coloring.
	ColoringResult = coloring.Result
	// WakeupSchedule is the adversary's spontaneous wake-up times.
	WakeupSchedule = wakeup.Schedule
	// WakeupResult reports a wake-up execution (§5).
	WakeupResult = wakeup.Result
	// ConsensusConfig tunes the §5 consensus protocol.
	ConsensusConfig = consensus.Config
	// ConsensusResult reports a consensus execution.
	ConsensusResult = consensus.Result
	// LeaderResult reports a leader election.
	LeaderResult = leader.Result
	// AlertResult reports an alert-protocol execution (§1.3).
	AlertResult = alert.Result
	// HopProgress summarizes a broadcast's sweep through BFS layers.
	HopProgress = broadcast.HopProgress
	// FloodPolicy is a pluggable baseline transmission policy: Name,
	// Inform (called once as each station is informed) and TxProb.
	FloodPolicy = baseline.Policy
	// Spec is a declarative scenario: a registered topology family
	// plus parameter overrides, parseable from the compact form
	// "uniform:n=256,density=8" (see ParseSpec, Generate).
	Spec = scenario.Spec
	// ProtocolSpec is a declarative algorithm selection: a registered
	// protocol plus parameter overrides, parseable from the compact
	// form "nos:budgetmul=2,source=5" (see ParseProtocol, RunProtocol).
	ProtocolSpec = protocol.Spec
)

// DefaultPhysical returns the calibrated SINR parameters used across
// tests and experiments: α=3, β=1.5, N=1, ε=1/3.
func DefaultPhysical() Physical { return sinr.DefaultParams() }

// Options carries the common execution knobs of the high-level helpers.
type Options struct {
	// Seed drives all protocol randomness (0 is a valid seed).
	Seed uint64
	// Source is the broadcasting station (default 0).
	Source int
	// Payload is the broadcast message content.
	Payload int64
	// MaxRounds optionally overrides the simulation budget.
	MaxRounds int
}

// ParseSpec reads the compact scenario form "family" or
// "family:name=value,...". ScenarioCatalogue lists what is available.
func ParseSpec(s string) (Spec, error) { return scenario.Parse(s) }

// Generate builds the network described by a scenario spec: defaults
// fill omitted parameters, and the result is deterministic in
// (spec, p, seed) — same inputs, byte-identical positions.
func Generate(spec Spec, p Physical, seed uint64) (*Network, error) {
	return scenario.Generate(spec, p, seed)
}

// ScenarioFamilies returns the sorted names of every registered
// topology family.
func ScenarioFamilies() []string { return scenario.Names() }

// ScenarioCatalogue renders the registered families with their
// parameter docs — the text behind the CLIs' -list flag.
func ScenarioCatalogue() string { return scenario.Describe() }

// ParseProtocol reads the compact protocol form "name" or
// "name:param=value,...". ProtocolCatalogue lists what is available.
func ParseProtocol(s string) (ProtocolSpec, error) { return protocol.Parse(s) }

// RunProtocol executes a registered protocol on the network: defaults
// fill omitted parameters, and the execution is deterministic in
// (net, spec, seed). The paper's broadcast algorithms and the baseline
// floods report broadcast completion; the §5 applications report their
// own completion measure with AllInformed meaning "completed
// correctly".
func RunProtocol(net *Network, spec ProtocolSpec, seed uint64) (*BroadcastResult, error) {
	return protocol.Run(net, spec, seed)
}

// RunProtocolOn is RunProtocol with a named physical engine: "exact"
// (the paper's model — what RunProtocol uses), "grid" (a reference
// only), "hier" (the hierarchical far-field engine for large
// networks), or "auto" (exact below 4096 stations, hier from there
// on). Approximate engines keep near-field interference and the
// decoding candidate exact and aggregate only the far tail; see the
// engine-selection notes in the README for the accuracy/speed
// trade-offs.
func RunProtocolOn(net *Network, spec ProtocolSpec, seed uint64, engine string) (*BroadcastResult, error) {
	ch, err := protocol.NamedChannel(engine)
	if err != nil {
		return nil, err
	}
	return protocol.RunOn(net, spec, seed, ch)
}

// ProtocolNames returns the sorted names of every registered protocol.
func ProtocolNames() []string { return protocol.Names() }

// ProtocolCatalogue renders the registered protocols with their
// parameter docs — the protocol half of the CLIs' -list output.
func ProtocolCatalogue() string { return protocol.Describe() }

// NewNetwork builds a network over explicit planar positions.
func NewNetwork(p Physical, pts []Point) (*Network, error) {
	return network.New(geom.NewEuclidean(pts), p)
}

// NewLineNetwork builds a network over explicit line coordinates (the
// metric the paper's exponential-chain lower-bound examples live in).
func NewLineNetwork(p Physical, coords []float64) (*Network, error) {
	return network.New(geom.NewLine(coords), p)
}

// GenerateUniform places n stations uniformly at the given mean density
// (stations per communication ball), retrying until connected.
func GenerateUniform(p Physical, n int, density float64, seed uint64) (*Network, error) {
	return netgen.Uniform(netgen.Config{Params: p, Seed: seed}, n, density)
}

// GeneratePath places n stations on a line at fraction·commRadius gaps.
func GeneratePath(p Physical, n int, fraction float64, seed uint64) (*Network, error) {
	return netgen.Path(netgen.Config{Params: p, Seed: seed}, n, fraction)
}

// GenerateClusters places k clusters of m stations bridged in a row.
func GenerateClusters(p Physical, k, m int, clusterRadius, bridgeGap float64, seed uint64) (*Network, error) {
	return netgen.Clusters(netgen.Config{Params: p, Seed: seed}, k, m, clusterRadius, bridgeGap)
}

// GenerateExponentialChain builds the paper's footnote-2 worst case:
// consecutive gaps shrink geometrically, granularity Rs = ratio^-n.
func GenerateExponentialChain(p Physical, n int, first, ratio float64, seed uint64) (*Network, error) {
	return netgen.ExponentialChain(netgen.Config{Params: p, Seed: seed}, n, first, ratio)
}

// GenerateClusteredPath builds a fixed-diameter path with an exponential
// cluster at station 0: the ratio controls granularity Rs while D stays
// constant — the topology of the geometry-impact experiment (E6).
func GenerateClusteredPath(p Physical, pathLen, clusterSize int, ratio float64) (*Network, error) {
	return netgen.ClusteredPath(netgen.Config{Params: p}, pathLen, clusterSize, ratio)
}

// DefaultBroadcastConfig returns the calibrated broadcast configuration
// for a network.
func DefaultBroadcastConfig(net *Network) BroadcastConfig {
	return broadcast.DefaultConfig(net.N(), net.Space.Growth(), net.Params.Eps)
}

// Broadcast runs NoSBroadcast (§4.1, Theorem 1): only the source is
// active initially; everyone else wakes on first reception.
func Broadcast(net *Network, o Options) (*BroadcastResult, error) {
	cfg := DefaultBroadcastConfig(net)
	cfg.MaxRounds = o.MaxRounds
	return broadcast.RunNoS(net, cfg, o.Seed, o.Source, o.Payload)
}

// BroadcastSpontaneous runs SBroadcast (§4.2, Theorem 2): all stations
// start simultaneously and precompute the coloring backbone.
func BroadcastSpontaneous(net *Network, o Options) (*BroadcastResult, error) {
	cfg := DefaultBroadcastConfig(net)
	cfg.MaxRounds = o.MaxRounds
	return broadcast.RunS(net, cfg, o.Seed, o.Source, o.Payload)
}

// BroadcastWith runs NoSBroadcast under an explicit configuration.
func BroadcastWith(net *Network, cfg BroadcastConfig, o Options) (*BroadcastResult, error) {
	return broadcast.RunNoS(net, cfg, o.Seed, o.Source, o.Payload)
}

// Colorize runs StabilizeProbability (§3) over all stations and returns
// the coloring.
func Colorize(net *Network, seed uint64) (*ColoringResult, error) {
	par := coloring.DefaultParams(net.N(), net.Space.Growth(), net.Params.Eps)
	return coloring.Run(net, par, seed)
}

// CheckLemma1 returns the heaviest same-color unit-ball mass of a
// coloring — the quantity Lemma 1 bounds by a constant.
func CheckLemma1(net *Network, colors []float64) float64 {
	return coloring.CheckLemma1(net, colors).MaxMass
}

// CheckLemma2 returns the weakest station's best-color ε/2-ball mass —
// the quantity Lemma 2 bounds from below by a constant.
func CheckLemma2(net *Network, colors []float64) float64 {
	return coloring.CheckLemma2(net, colors).MinBestMass
}

// WakeUp runs the §5 ad hoc wake-up protocol under an adversarial
// schedule of spontaneous wake-ups.
func WakeUp(net *Network, seed uint64, sched WakeupSchedule) (*WakeupResult, error) {
	return wakeup.Run(net, DefaultBroadcastConfig(net), seed, sched)
}

// Consensus agrees on the minimum of the stations' messages (§5).
// msgs[i] ∈ {0..x}.
func Consensus(net *Network, seed uint64, x int64, msgs []int64) (*ConsensusResult, error) {
	cfg := consensus.DefaultConfig(net.N(), net.Space.Growth(), net.Params.Eps, x)
	return consensus.Run(net, cfg, seed, msgs)
}

// ElectLeader elects a unique leader whp via consensus on random IDs
// from {1..n³} (§5).
func ElectLeader(net *Network, seed uint64) (*LeaderResult, error) {
	cfg := consensus.DefaultConfig(net.N(), net.Space.Growth(), net.Params.Eps, 1)
	return leader.Run(net, cfg, seed)
}

// Alert runs the §1.3 alert protocol: raised[i] marks stations where
// the adversary raises an alert; by the protocol deadline every station
// outputs whether any alert was raised, with the negative case staying
// completely silent.
func Alert(net *Network, seed uint64, raised []bool) (*AlertResult, error) {
	cfg := alert.DefaultConfig(net.N(), net.Space.Growth(), net.Params.Eps)
	return alert.Run(net, cfg, seed, raised)
}

// Progress computes per-hop inform-time statistics of a completed
// broadcast — the sweep profile of the message through the network.
func Progress(net *Network, source int, informTime []int) (*HopProgress, error) {
	return broadcast.Progress(net, source, informTime)
}

// FloodDecay runs the classic Decay baseline.
func FloodDecay(net *Network, o Options) (*BroadcastResult, error) {
	return baseline.RunFlood(net, baseline.NewDecay(net.N()), o.Seed, o.Source, o.MaxRounds)
}

// FloodDaumStyle runs the granularity-sensitive baseline modelled on
// Daum et al. [5]; its probability sweep spans Θ(log n + α log Rs)
// levels.
func FloodDaumStyle(net *Network, o Options) (*BroadcastResult, error) {
	return baseline.RunFlood(net, baseline.NewDaumStyle(net), o.Seed, o.Source, o.MaxRounds)
}

// FloodDensityOracle runs the genie-aided local-broadcast baseline.
func FloodDensityOracle(net *Network, o Options) (*BroadcastResult, error) {
	return baseline.RunFlood(net, baseline.NewDensityOracle(net, 0), o.Seed, o.Source, o.MaxRounds)
}

// FloodGridTDMA runs the GPS grid-TDMA baseline (stations know their
// positions — precisely the assumption the paper removes).
func FloodGridTDMA(net *Network, o Options) (*BroadcastResult, error) {
	pol, err := baseline.NewGridTDMA(net)
	if err != nil {
		return nil, err
	}
	return baseline.RunFlood(net, pol, o.Seed, o.Source, o.MaxRounds)
}
