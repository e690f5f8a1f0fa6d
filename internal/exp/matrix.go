package exp

import (
	"fmt"
	"hash/fnv"

	"sinrcast/internal/broadcast"
	"sinrcast/internal/protocol"
	"sinrcast/internal/scenario"
	"sinrcast/internal/stats"
)

// E13ProtocolMatrix is the paper's central comparison as a full matrix:
// every registered protocol runs on every registered scenario family at
// matched n, one row per family, one column per protocol, each cell the
// median round count over Config.Trials (with the usual fail
// annotations). Coverage grows automatically on both axes — a
// protocol.Register or scenario.Register call adds a column or a row
// with no experiment code change. Config.Scenario and Config.Protocol
// optionally restrict either axis to one explicit spec.
//
// "Rounds" means each protocol's own completion measure (broadcast
// completion, wake-up span, the consensus/leader/alert schedule
// length), so cells compare like with like only within a column; the
// matrix's value is how each column moves across geometries.
func E13ProtocolMatrix(cfg Config) (*stats.Table, error) {
	pool := newTrialPool(cfg)
	m, err := newMatrix(cfg, pool)
	if err != nil {
		return nil, err
	}
	pool.run()
	headers := []string{"family", "n", "D"}
	for _, ps := range m.protos {
		headers = append(headers, ps.String())
	}
	t := stats.NewTable(
		fmt.Sprintf("E13: protocol×scenario matrix, %d protocols × %d families, median rounds, target n=%d",
			len(m.protos), len(m.rows), m.n),
		headers...)
	for _, r := range m.rows {
		row := []any{r.family, r.n, r.d}
		for _, c := range r.cells {
			row = append(row, medianCell(c.results()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// matrix is E13 with every cell's trials registered on a trialPool:
// one row per scenario family, one cell per protocol in protos order.
type matrix struct {
	n      int // target stations per family
	protos []protocol.Spec
	rows   []matrixRow
}

type matrixRow struct {
	family string
	n, d   int // stations and diameter of the generated deployment
	cells  []*trialSet[*broadcast.Result]
}

// newMatrix generates every family of E13's scenario axis and
// registers each (family, protocol) cell's trials on pool, so the
// whole table's trials run as one batch.
func newMatrix(cfg Config, pool *trialPool) (*matrix, error) {
	m := &matrix{n: cfg.scaled(32, 16)}
	scenSpecs, err := cfg.scenarioSpecs(m.n)
	if err != nil {
		return nil, fmt.Errorf("E13: %w", err)
	}
	if m.protos, err = cfg.protocolSpecs(); err != nil {
		return nil, fmt.Errorf("E13: %w", err)
	}
	for _, sp := range scenSpecs {
		net, err := scenario.Generate(sp, physParams(), cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("E13 %s: %w", sp.Family, err)
		}
		d, _ := net.Diameter()
		r := matrixRow{family: sp.Family, n: net.N(), d: d}
		for _, ps := range m.protos {
			// Data points are keyed by (family, protocol) name so every
			// cell's trial series is stable as either axis grows.
			r.cells = append(r.cells, addTrials(pool, cfg.trials(), 13, matrixKey(sp.Family, ps.Name),
				func(seed uint64) (*broadcast.Result, error) {
					return protocol.Run(net, ps, seed)
				}))
		}
		m.rows = append(m.rows, r)
	}
	return m, nil
}

// protocolSpecs returns the protocol axis of E13: the single parsed
// Config.Protocol spec when set, else every registered protocol at its
// defaults.
func (c Config) protocolSpecs() ([]protocol.Spec, error) {
	if c.Protocol != "" {
		ps, err := protocol.Parse(c.Protocol)
		if err != nil {
			return nil, err
		}
		// Parse defers range checks to Run; validate here so a bad
		// -alg spec errors out instead of rendering every cell "fail".
		if err := protocol.Validate(ps); err != nil {
			return nil, err
		}
		return []protocol.Spec{ps}, nil
	}
	var specs []protocol.Spec
	for _, p := range protocol.Protocols() {
		specs = append(specs, protocol.Spec{Name: p.Name})
	}
	return specs, nil
}

// matrixKey maps a (family, protocol) cell to a stable data-point key.
// The NUL separator keeps concatenation unambiguous; keys are
// independent of either registry's size or order.
func matrixKey(family, proto string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(family))
	h.Write([]byte{0})
	h.Write([]byte(proto))
	return h.Sum64()
}
