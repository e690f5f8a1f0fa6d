// Package sinrcast is a simulation library for ad hoc wireless
// communication under the SINR physical model, reproducing
//
//	"On the Impact of Geometry on Ad Hoc Communication in Wireless
//	Networks", Jurdziński, Kowalski, Różański, Stachowiak (PODC 2014).
//
// The package provides:
//
//   - an exact SINR reception engine over bounded-growth metric spaces;
//   - a scenario registry of topology families (uniform, grid, path,
//     clusters, gaussian, corridor, the paper's granularity-exponential
//     chain, annulus rings, dumbbells, perforated grids, density
//     gradients, cluster stars) built from declarative Specs
//     ("uniform:n=256,density=8" — see ParseSpec, Generate,
//     ScenarioCatalogue);
//   - the paper's distributed coloring primitive StabilizeProbability
//     (§3) with Lemma 1 / Lemma 2 invariant checkers;
//   - the broadcast algorithms NoSBroadcast (Theorem 1, non-spontaneous
//     wake-up, O(D log² n)) and SBroadcast (Theorem 2, spontaneous
//     wake-up, O(D log n + log² n));
//   - the §5 applications: ad hoc wake-up, consensus and leader
//     election;
//   - baseline algorithms (Decay, a Daum-et-al-style granularity-
//     sensitive sweep, density-oracle flooding, GPS grid TDMA);
//   - a protocol registry built on the same generic registry as the
//     scenario one: every algorithm above is a named, self-describing
//     entry runnable from a declarative ProtocolSpec
//     ("nos:budgetmul=2,source=5" — see ParseProtocol, RunProtocol,
//     ProtocolCatalogue).
//
// Quick start:
//
//	net, err := sinrcast.GenerateUniform(sinrcast.DefaultPhysical(), 128, 8, 1)
//	if err != nil { ... }
//	res, err := sinrcast.Broadcast(net, sinrcast.Options{Seed: 7})
//	fmt.Println(res.Rounds, res.AllInformed)
//
// All randomness is seed-driven and runs reproduce bit-for-bit. See
// DESIGN.md for the architecture and EXPERIMENTS.md for the measured
// reproduction of every quantitative claim in the paper.
//
// # Performance architecture
//
// The simulation core is built to exploit all available cores without
// giving up reproducibility, at three layers:
//
//   - Kernel: path loss d^-α is evaluated by a strategy specialized at
//     engine construction for the exponent's shape (α=2 → 1/d², α=4 →
//     1/(d²·d²), integer and half-integer α → multiply chains plus at
//     most two square roots, math.Pow only for irrational α), so the
//     innermost per-pair statement is branch-free multiplies.
//   - Engine parallelism: every engine cuts a round into work chunks
//     — contiguous receiver ranges, or the hier engine's 16×16-cell
//     receiver blocks — and drains them on a pool of persistent
//     workers that take the next chunk index from one atomic cursor,
//     the calling goroutine included, so a slow chunk holds up only
//     the worker running it. Per-chunk output slots merged in chunk
//     order keep the reception list byte-identical to the serial
//     result for every worker count (Engine.SetWorkers; default
//     runtime.GOMAXPROCS(0); small rounds stay serial below a
//     crossover size).
//   - Trial parallelism: each experiment table (internal/exp) runs
//     its trials on one pool of exp.Config.Workers goroutines
//     (cmd/experiments -workers). The registry sweeps E12 and E13
//     register every data point's trials before any runs, so the pool
//     drains the whole table from one cursor with no barrier between
//     cells; the other experiments run one data point per pool. Every
//     trial's randomness derives from (Seed, experiment, data point,
//     trial) alone and results land in per-(point, trial) slots, so
//     tables are bit-identical for Workers=1 and Workers=N.
//
// Size Workers to physical cores for trial-dominated workloads (the
// experiment suite) and leave engine workers at the default; the two
// layers compose because engine rounds below the crossover n (~1k
// stations) never spawn shards, so small-network trials do not
// oversubscribe the machine.
//
// # Engine selection
//
// Three physical engines resolve rounds, trading accuracy for scale:
//
//   - exact (sinr.Engine): the paper's model, O(|tx|·n) per round.
//     Every experiment table (E1–E13) and every default code path uses
//     it; it is the reference the approximate engines are measured
//     against.
//   - grid (sinr.GridEngine): transmitters bucket into cells;
//     interference from cells outside the near field is aggregated at
//     the cell center. O(liveCells + nearBox) per receiver. A
//     reference only: hier and exact both beat it from n=512 on.
//   - hier (sinr.HierEngine): the grid's cells stack into a
//     power-of-two pyramid whose nodes hold aggregate power at their
//     center of mass, consumed through a θ-gated Barnes–Hut descent
//     (default θ=0.5 — the knob trades accuracy for speed), and the
//     hot path is amortized three ways. Across receivers: the descent
//     runs once per occupied 16×16-cell block — nodes accepted
//     against the block rectangle's nearest point, a conservative and
//     therefore strictly finer test — and every receiver in the block
//     replays the accepted-node frontier as a flat slab scan, with
//     the near field gathered once per block and summed exactly.
//     Within a round, the build has two stages: every round buckets
//     its transmitters into cells and marks the blocks they make hot
//     (O(|tx|)); the pyramid is built on demand, at most once per
//     round, by the first receiver whose candidate decodes against
//     its exact near-field sum alone. Interference only grows as
//     transmitters are added, so a candidate that fails against the
//     near field fails against near + far, and the short-circuit is
//     exact; a flood's tail rounds, one or two receivers against
//     hundreds of transmitters, mostly end there without a pyramid.
//     Across rounds: an aggregation epoch bumps whenever the
//     transmitter slice differs from the previous round's (any such
//     round rebuilds from scratch), and per-block frontier/near slabs,
//     per-receiver far-field sums and the pyramid are cached by epoch —
//     a repeated round replays them bit-identically without
//     descending or re-folding. A block descends only for its first
//     decode candidate, so a hot block whose receivers all fail the
//     rejection pass gathers its near field but builds no frontier.
//     The folds run through the internal/sinr/simd portable batch
//     kernels (α-specialized 4/8-wide unrolls preserving scalar
//     summation order bit-exactly, and a kernel-free ArgMin rejection
//     pass before any path-loss math). Receivers with no transmitter
//     near their block are rejected with one block-granular hot-table
//     lookup, and steady-state rounds are allocation-free. There is
//     one resolve path; the tests hold it bit for bit to a
//     per-receiver descent oracle with scalar folds on a fresh engine
//     per round.
//     Built for million-station rounds.
//
// Both approximate engines keep near-field interference and the
// decoding candidate exact, so approximation only perturbs the far
// interference tail; the hierarchy's center-of-mass placement cancels
// the first-order error of the grid's fixed centers, so its measured
// disagreement against the exact engine is lower (TestHierEngineAgreement).
// sinr.AutoEngine (CLI flag -engine auto) picks by n and α: exact below
// 4096 stations or when α is within 0.5 of the growth degree (the far
// field barely converges there), hier everywhere else; never the grid.
//
// All three engines also implement ResolveFor(tx, receivers) — subset
// resolution byte-identical to a filtered Resolve; the hier engine
// groups a subset's receivers by receiver block and runs its one block
// loop, so each block builds its far-field frontier at most once per
// round however scattered the receivers are — and sim.Engine
// exposes SetReceiverActive so protocols whose quiescent stations
// cannot change state by receiving (informed flood stations,
// SBroadcast stations past the coloring, alerted alert stations) stop
// paying O(n) per round for settled receivers. Experiment E14 measures
// the resulting large-n throughput at 10⁴–10⁶ stations.
//
// There is one round loop: every runner — the paper's algorithms, the
// four baseline floods (baseline.RunFloodOn) and the §5 applications —
// drives sim.Engine.Step, so phase labels, metrics and the
// receiver-activity hook apply to all of them. Below the loop, every
// engine answers a full round with a single transmitter from memory:
// Resolve is a pure function of the transmitter set on a static
// deployment, so each engine replays a station's solo receptions from
// a per-run memo that station's first solo round filled. The memo sits
// inside Resolve, under every resolver wrapper (tracing, serve's
// progress and cancellation, timing), holds at most one entry per
// station, starts empty in every Clone, and never answers ResolveFor.
//
// The round loop around the engines is amortized the same way. There
// is one station contract, sim.Protocol: Tick returns the transmit
// decision plus the round of the station's next action, and Recv the
// earliest round a reception makes it act, or NeverWake to keep its
// hint. The engine ticks only the stations due each round: those that
// asked for the next round ride an ascending list, later wakes wait in
// a bucketed calendar ring capped at 4096 rounds ahead (buckets are
// lists linked through per-station slots, and a round's bucket is
// ordered through a two-level bitmap of due stations), and
// the two merge in ascending id so RNG draws and outputs stay
// byte-exact against ticking every station every round (kept only as
// a test adapter). An uninformed flood station sleeps until a
// reception.
// In NoSBroadcast's coloring preamble — where all but the source sleep
// — this takes the n=65536 round loop from ~1.2k to ~420k rounds/s,
// allocation-free in steady state. Stations that gamble every round sleep too: a coloring
// Machine and the NoS, S, consensus and alert flooders draw their
// per-round Bernoulli trials ahead with an rng.Cursor, in the same
// stream and order, up to the first success or the end of the span
// over which their probability is fixed, and sleep until that round.
// The Decay and DaumStyle floods, whose probability sweeps 2^-(1+k mod
// L) by the rounds since a station was informed, draw ahead through an
// rng.Sweep — one threshold table per run, shared by every station —
// and sleep to their next transmission; the density oracle, grid TDMA
// and caller-supplied flood policies still draw every round.
// Receptions that change nothing the station draws (coloring feedback,
// a message it already holds) keep its hint, so a consensus token
// holder is ticked only when it transmits or its window ends. On the
// trial side,
// engine state is split into an immutable topology slab shared by
// pointer and lazily-allocated run state, so Engine/GridEngine/
// HierEngine Clone() costs ~350 ns against milliseconds of fresh
// construction; internal/exp pools clones per experiment point, so T
// trials pay one topology build. Clone reuse is sound because resolve output depends only on
// (topology, transmitter set) — a purity contract the clone tests pin;
// engines with per-trial randomness (fading, weak-device) refuse to
// clone and are rebuilt per trial.
//
// The protocol side of the round loop follows the same rule: compute
// per-run constants once. StabilizeProbability runs on a fixed
// schedule whose segment lengths, thresholds and total depend only on
// n and the constants (Fact 7), so coloring.Params.Schedule validates
// the parameters once per run and precomputes them. Every
// coloring.Machine and every NoS, S, consensus and alert station holds
// a pointer to that one immutable Schedule. Per-round Tick and Recv
// calls then compare integers instead of recomputing logarithms, which
// made the E13 matrix about 5× faster.
//
// # Scenario architecture
//
// Topology construction is registry-driven (internal/scenario): each
// family registers once with typed parameter declarations (name,
// default, range, doc) and a deterministic builder from (Spec, Physical,
// Seed). Everything downstream is generated from the registry — the
// CLIs' -scenario parsing and -list catalogue, the registry-wide
// property tests (connectivity, metric validity, byte-identical
// determinism), and experiment E12, a cross-family sweep whose coverage
// grows automatically when a family is registered. internal/netgen
// remains as thin wrappers for the function-per-family call sites.
// Generators that densify-and-retry until connected report the attempt
// count and final geometry in Network.Meta. Experiment tables stream
// through pluggable sinks (internal/stats: aligned text, CSV, JSON).
//
// # Protocol architecture
//
// The algorithm axis (internal/protocol) is built like the scenario
// axis: every algorithm — NoS/S broadcast, the multi-source wake-up engine,
// the four baseline floods, and the §5 applications through a result
// adapter — registers once with typed parameter declarations and a
// deterministic runner from (Network, ProtocolSpec, Seed). The
// original entry points stay the canonical implementations; the
// registry wraps them. Everything downstream is generated from the
// registry: broadcast-sim's -alg parsing and -list catalogue, the
// registry-wide property tests (bit-determinism across runs and
// goroutines, budget-bounded termination, Metrics consistency), the
// public RunProtocol, and experiment E13 — a protocol×scenario matrix
// racing every registered protocol over every registered family at
// matched n, whose coverage grows automatically on both axes with
// each Register call.
//
// Both axes are typed views over one generic registry
// (internal/registry). It owns the parameter declarations, the
// canonical "name:k=v,…" form and its parser, default filling and
// range/integrality/size checks, registration, the sorted listing, the
// -list catalogue and the SpecError type; each axis fixes only its
// message wording ("family" vs "protocol") and what an entry builds or
// runs. A third axis is one more Registry value, not a third copy.
//
// # Simulation as a service
//
// cmd/sinrcastd serves both registries over HTTP (internal/serve):
// POST a scenario spec, a protocol spec (or an experiment number),
// physics overrides and a seed to /v1/jobs; poll, cancel, stream
// round-by-round NDJSON progress, and fetch the result table in any
// stats sink format — byte-identical to the batch CLIs for the same
// configuration. A JSON-RPC 2.0 twin lives at /rpc. Admission is
// bounded (internal/jobs): a fixed-depth queue answers 429 +
// Retry-After when full instead of buffering unbounded work, a fixed
// worker pool shares the machine's resolver-worker budget so parallel
// jobs never oversubscribe the cores one batch run would use, every
// job carries its own cancellation context, and SIGTERM drains
// in-flight jobs before exiting. The perf core is a content-addressed
// warm-engine cache keyed by (scenario spec, sinr.EngineKey, seed) —
// sinr.Params.Key gives physics a canonical bit-round-tripping string
// form — that pays scenario generation plus engine construction once
// per deployment and hands every request a ~sub-microsecond engine
// clone over the shared topology, with singleflight collapse of
// concurrent misses and LRU byte-budget eviction. Because resolution
// is pure in (topology, transmitter set), result tables are
// byte-identical at any cache temperature (CI-gated).
package sinrcast
