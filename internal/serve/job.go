package serve

import (
	"context"
	"fmt"
	"math"

	"sinrcast/internal/broadcast"
	"sinrcast/internal/exp"
	"sinrcast/internal/network"
	"sinrcast/internal/protocol"
	"sinrcast/internal/rng"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
	"sinrcast/internal/stats"
)

// PhysicsSpec overrides individual physical parameters; nil fields
// keep sinr.DefaultParams. Pointer fields distinguish "omitted" from
// an explicit zero (which would be invalid and must be reported, not
// silently defaulted).
type PhysicsSpec struct {
	Alpha *float64 `json:"alpha,omitempty"`
	Beta  *float64 `json:"beta,omitempty"`
	Noise *float64 `json:"noise,omitempty"`
	Eps   *float64 `json:"eps,omitempty"`
}

// JobRequest is the submission body of both transports (POST /v1/jobs
// and the job.submit RPC). Two kinds are accepted:
//
//   - run: Scenario and Protocol are compact specs
//     ("uniform:n=64", "decay"); the daemon generates the deployment
//     (through the warm-engine cache), runs Trials independent
//     protocol executions, and streams progress plus one result table.
//   - experiment: Experiment selects a suite runner (1–14, the same
//     map as cmd/experiments); Scenario/Protocol optionally restrict
//     the registry sweeps E12/E13 exactly like the CLI flags. The
//     result table is byte-identical to cmd/experiments with the same
//     seed, trials, scale, and engine.
type JobRequest struct {
	Scenario string       `json:"scenario,omitempty"`
	Protocol string       `json:"protocol,omitempty"`
	Engine   string       `json:"engine,omitempty"`
	Physics  *PhysicsSpec `json:"physics,omitempty"`
	Seed     uint64       `json:"seed"`
	Trials   int          `json:"trials,omitempty"`
	// ProgressEvery streams a progress event every that many resolved
	// rounds (run jobs only; 0 = the server default, < 0 = none).
	ProgressEvery int `json:"progress_every,omitempty"`
	// Experiment selects the experiment-suite job kind (1–14).
	Experiment int     `json:"experiment,omitempty"`
	Scale      float64 `json:"scale,omitempty"`
}

const maxTrials = 10000

func (r *JobRequest) isExperiment() bool { return r.Experiment != 0 }

func (r *JobRequest) engineName() string {
	if r.Engine != "" {
		return r.Engine
	}
	if r.isExperiment() {
		return "auto" // the cmd/experiments default (E14 is the only consumer)
	}
	return "exact" // the paper's model
}

func (r *JobRequest) trialCount() int {
	if r.Trials > 0 {
		return r.Trials
	}
	if r.isExperiment() {
		return 5 // the cmd/experiments default
	}
	return 1
}

func (r *JobRequest) scale() float64 {
	if r.Scale > 0 {
		return r.Scale
	}
	return 1
}

// physParams resolves the physics overrides over the defaults.
func (r *JobRequest) physParams() sinr.Params {
	p := sinr.DefaultParams()
	if r.Physics == nil {
		return p
	}
	if r.Physics.Alpha != nil {
		p.Alpha = *r.Physics.Alpha
	}
	if r.Physics.Beta != nil {
		p.Beta = *r.Physics.Beta
	}
	if r.Physics.Noise != nil {
		p.Noise = *r.Physics.Noise
	}
	if r.Physics.Eps != nil {
		p.Eps = *r.Physics.Eps
	}
	return p
}

// name is the display name shown in listings.
func (r *JobRequest) name() string {
	if r.isExperiment() {
		return fmt.Sprintf("E%d", r.Experiment)
	}
	return fmt.Sprintf("run %s alg=%s", r.Scenario, r.Protocol)
}

// validate rejects a request the daemon could never run. It is the
// 400-vs-500 boundary: everything caught here is the client's fault.
// Deployment-dependent failures (a source index beyond n, physics
// incompatible with the space's growth degree) surface later as job
// failures.
func (r *JobRequest) validate() error {
	if r.Physics != nil {
		for _, f := range []struct {
			name string
			v    *float64
		}{{"alpha", r.Physics.Alpha}, {"beta", r.Physics.Beta}, {"noise", r.Physics.Noise}, {"eps", r.Physics.Eps}} {
			if f.v != nil && (math.IsNaN(*f.v) || math.IsInf(*f.v, 0)) {
				return fmt.Errorf("physics.%s must be finite", f.name)
			}
		}
	}
	if r.Trials < 0 || r.Trials > maxTrials {
		return fmt.Errorf("trials must be in [0, %d]", maxTrials)
	}
	if _, err := protocol.NamedChannel(r.engineName()); err != nil {
		return err
	}
	if r.isExperiment() {
		if r.Experiment < 1 || r.Experiment > 14 {
			return fmt.Errorf("experiment must be in [1, 14], got %d", r.Experiment)
		}
		if r.Scenario != "" {
			if err := parseAndValidateScenario(r.Scenario); err != nil {
				return err
			}
		}
		if r.Protocol != "" {
			if err := parseAndValidateProtocol(r.Protocol); err != nil {
				return err
			}
		}
		if r.Scale < 0 {
			return fmt.Errorf("scale must be positive")
		}
		return nil
	}
	if r.Scenario == "" || r.Protocol == "" {
		return fmt.Errorf("a run job needs both scenario and protocol (or set experiment for the suite kind)")
	}
	if err := parseAndValidateScenario(r.Scenario); err != nil {
		return err
	}
	return parseAndValidateProtocol(r.Protocol)
}

func parseAndValidateScenario(s string) error {
	sp, err := scenario.Parse(s)
	if err != nil {
		return err
	}
	return scenario.Validate(sp)
}

func parseAndValidateProtocol(s string) error {
	sp, err := protocol.Parse(s)
	if err != nil {
		return err
	}
	return protocol.Validate(sp)
}

// cacheKey content-addresses a deployment plus its warmed engine: the
// canonical scenario spec, the canonical engine+physics key, and the
// generation seed. Everything that influences topology or Resolve
// output is in the key; nothing else is.
func cacheKey(spec scenario.Spec, engine string, phys sinr.Params, seed uint64) string {
	return fmt.Sprintf("%s|%s|seed=%d", spec.String(), sinr.EngineKey(engine, phys), seed)
}

// runCacheKey returns the warm-cache key a run job will touch;
// ok=false for experiment jobs (which bypass the serve cache) and for
// unparseable scenarios (validate rejects those with a better error).
func (r *JobRequest) runCacheKey() (string, bool) {
	if r.isExperiment() {
		return "", false
	}
	spec, err := scenario.Parse(r.Scenario)
	if err != nil {
		return "", false
	}
	return cacheKey(spec, r.engineName(), r.physParams(), r.Seed), true
}

// rewarm rebuilds one journaled deployment through the cache — the
// replay path's half of runSim's cache interaction, without running
// any trials. The journal already proves the key is reused, so the
// entry skips probation (Cache.Warm) and stays resident however many
// keys are rewarmed. Failures are deliberately ignored: rewarming is
// an optimization, and a spec that no longer builds will be reported
// by the resubmitted job itself.
func (s *Server) rewarm(req *JobRequest) {
	scSpec, err := scenario.Parse(req.Scenario)
	if err != nil {
		return
	}
	phys := req.physParams()
	engine := req.engineName()
	key := cacheKey(scSpec, engine, phys, req.Seed)
	s.cache.Warm(key,
		func() (*network.Network, error) { return scenario.Generate(scSpec, phys, req.Seed) },
		func(n *network.Network) (sim.Resolver, error) { return sinr.NewNamedEngine(engine, n.Space, n.Params) },
	)
}

// trialSeed derives the per-trial protocol seed from the request seed,
// mirroring exp.Config.trialSeed's shape (one derivation domain per
// job kind is unnecessary here: the request seed is already private to
// the job).
func trialSeed(seed uint64, trial int) uint64 {
	return rng.Derive(seed, uint64(trial))
}

// cancelPanic is the sentinel the progress observer throws to abort a
// protocol run whose job context was canceled; runTrial recovers it
// and converts it back into ctx.Err(). Resolver interfaces cannot
// return errors, so cancellation must unwind, not propagate.
type cancelPanic struct{}

// runSim executes a run job: deployment through the warm cache, then
// Trials sequential protocol executions over one request-private
// engine, each observed for progress streaming and cancellation.
func (s *Server) runSim(ctx context.Context, st *jobState, workers int) error {
	req := st.req
	scSpec, err := scenario.Parse(req.Scenario)
	if err != nil {
		return err
	}
	prSpec, err := protocol.Parse(req.Protocol)
	if err != nil {
		return err
	}
	phys := req.physParams()
	engine := req.engineName()
	key := cacheKey(scSpec, engine, phys, req.Seed)

	net, eng, hit, err := s.cache.Get(key,
		func() (*network.Network, error) { return scenario.Generate(scSpec, phys, req.Seed) },
		func(n *network.Network) (sim.Resolver, error) { return sinr.NewNamedEngine(engine, n.Space, n.Params) },
	)
	if err != nil {
		return err
	}
	st.log.append(event{Type: "cache", Job: st.id, Hit: boolp(hit), Key: key})
	if sw, ok := eng.(interface{ SetWorkers(int) }); ok {
		sw.SetWorkers(workers)
	}

	every := req.ProgressEvery
	if every == 0 {
		every = s.cfg.ProgressEvery
	}
	trials := req.trialCount()
	headers := []string{"trial", "seed", "rounds", "informed", "all", "phases", "tx", "rx"}
	tb := stats.NewTable(
		fmt.Sprintf("run %s alg=%s %s seed=%d", scSpec, prSpec, sinr.EngineKey(engine, phys), req.Seed),
		headers...)

	// Resume at the journaled high-water mark: completed-trial rows from
	// the previous incarnation are restored verbatim (AddRow already
	// stringified them, so the JSON round trip is exact) and the loop
	// starts at the first missing trial. Per-trial seeds are pure
	// derivations of the request seed, so the recomputed tail is
	// byte-identical to an uninterrupted run.
	start := 0
	if resume := st.resumeRows; len(resume) > 0 {
		if len(resume) > trials {
			resume = resume[:trials]
		}
		ok := true
		for _, row := range resume {
			if len(row) != len(headers) {
				ok = false // schema drift: recompute everything
				break
			}
		}
		if ok {
			tb.Rows = append(tb.Rows, resume...)
			start = len(resume)
			st.log.append(event{Type: "resume", Job: st.id, Trial: intp(start)})
		}
	}

	for t := start; t < trials; t++ {
		seed := trialSeed(req.Seed, t)
		res, err := runTrial(ctx, st, net, prSpec, seed, eng, t, every)
		if err != nil {
			return err
		}
		informed := 0
		for _, at := range res.InformTime {
			if at >= 0 {
				informed++
			}
		}
		tb.AddRow(t, seed, res.Rounds, informed, res.AllInformed, res.Phases,
			res.Metrics.Transmissions, res.Metrics.Receptions)
		s.journal.Append(journalRecord{Op: "trial", ID: st.id, Trial: t, Row: tb.Rows[len(tb.Rows)-1]})
	}
	st.setTable(tb)
	return nil
}

// runTrial runs one protocol execution with the observer wrapper
// installed: every resolved round checks the job context (panicking
// the cancel sentinel out of the run) and streams a progress event at
// the configured cadence.
func runTrial(ctx context.Context, st *jobState, net *network.Network, spec protocol.Spec,
	seed uint64, eng sim.Resolver, trial, every int) (res *broadcast.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(cancelPanic); ok {
				err = ctx.Err()
				if err == nil {
					err = context.Canceled
				}
				return
			}
			panic(r)
		}
	}()
	ch := func(*network.Network) (sim.Resolver, error) {
		return sim.ObserveRounds(eng, func(round, tx, rec int) {
			if ctx.Err() != nil {
				panic(cancelPanic{})
			}
			if every > 0 && round%every == 0 {
				st.log.append(event{Type: "progress", Job: st.id,
					Trial: intp(trial), Round: intp(round), Tx: intp(tx), Rec: intp(rec)})
			}
		}), nil
	}
	return protocol.RunOn(net, spec, seed, ch)
}

// expRunners mirrors cmd/experiments' runner map; the CI daemon smoke
// relies on the two producing byte-identical tables for the same
// configuration.
var expRunners = map[int]struct {
	name string
	run  func(exp.Config) (*stats.Table, error)
}{
	1:  {"E1", exp.E1NoSBroadcastVsD},
	2:  {"E2", exp.E2SBroadcastScaling},
	3:  {"E3", exp.E3Lemma1},
	4:  {"E4", exp.E4Lemma2},
	5:  {"E5", exp.E5ColoringRounds},
	6:  {"E6", exp.E6GeometryImpact},
	7:  {"E7", exp.E7BaselineComparison},
	8:  {"E8", exp.E8Applications},
	9:  {"E9", exp.E9SuccessProbability},
	10: {"E10", exp.E10ModelRobustness},
	11: {"E11", exp.E11ColoringAblation},
	12: {"E12", exp.E12CrossFamilySweep},
	13: {"E13", exp.E13ProtocolMatrix},
	14: {"E14", exp.E14LargeNScaling},
}

// runExperiment executes an experiment-suite job. Suite runners manage
// their own trial concurrency and cannot be interrupted mid-run; the
// context is honored between submission and start (the jobs layer
// skips canceled queued jobs) and checked once more here.
func (s *Server) runExperiment(ctx context.Context, st *jobState, workers int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	req := st.req
	r, ok := expRunners[req.Experiment]
	if !ok {
		return fmt.Errorf("no experiment %d", req.Experiment)
	}
	cfg := exp.Config{
		Seed:     req.Seed,
		Trials:   req.trialCount(),
		Scale:    req.scale(),
		Workers:  workers,
		Scenario: req.Scenario,
		Protocol: req.Protocol,
		Engine:   req.engineName(),
	}
	if s.journal != nil {
		// Checkpoint completed trials into the journal and restore the
		// ones the previous incarnation finished, so a crashed
		// experiment resumes at its high-water mark instead of
		// recomputing every trial.
		cfg.Checkpoint = &journalCheckpoint{journal: s.journal, id: st.id, restored: st.resumeTrials}
	}
	tb, err := r.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", r.name, err)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	st.setTable(tb)
	return nil
}

// journalCheckpoint adapts the write-ahead journal to
// exp.TrialCheckpoint: Store appends one etrial record per completed
// trial, Load answers from the records replayed at startup. restored
// is read-only after replay, and Journal.Append serializes internally,
// so concurrent trials need no extra locking here.
type journalCheckpoint struct {
	journal  *Journal
	id       string
	restored map[trialKey][]byte
}

func (jc *journalCheckpoint) Load(expID, point uint64, trial int) ([]byte, bool) {
	data, ok := jc.restored[trialKey{expID, point, trial}]
	return data, ok
}

func (jc *journalCheckpoint) Store(expID, point uint64, trial int, data []byte) {
	jc.journal.Append(journalRecord{Op: "etrial", ID: jc.id, Exp: expID, Point: point, Trial: trial, Data: data})
}
