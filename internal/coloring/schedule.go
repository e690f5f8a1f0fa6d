package coloring

import "math"

// Schedule is the validated, precomputed form of Params: every segment
// length, reception threshold and total of one StabilizeProbability
// run. Algorithm 1 runs on a fixed schedule that depends only on N and
// the constants (Fact 7: O(log² n) rounds), so a run builds one
// Schedule with Params.Schedule and shares the pointer across every
// Machine and station. The per-round paths then read plain integers
// instead of re-deriving them from logarithms on every tick. A Schedule
// is immutable and safe for concurrent use.
//
// Each field but iterLen holds exactly what the Params getter of the
// same name returns; the getters stay the definitions.
type Schedule struct {
	par Params

	lg         float64
	pstart     float64
	finalColor float64
	phases     int
	dtLen      int
	poLen      int
	iterLen    int // dtLen + poLen: one DensityTest+Playoff iteration
	phaseLen   int // CPrime·iterLen: one doubling phase
	total      int // phases·phaseLen
	dtNeed     int
	poNeed     int
}

// Schedule validates p once and precomputes its schedule. It returns
// the Validate error for invalid parameters.
func (p Params) Schedule() (*Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Schedule{
		par:        p,
		lg:         p.Lg(),
		pstart:     p.PStart(),
		finalColor: p.FinalColor(),
		phases:     p.Phases(),
		dtLen:      p.DTLen(),
		poLen:      p.POLen(),
		iterLen:    p.DTLen() + p.POLen(),
		phaseLen:   p.PhaseLen(),
		total:      p.TotalRounds(),
		dtNeed:     p.DTNeed(),
		poNeed:     p.PONeed(),
	}, nil
}

// TotalRounds returns Params.TotalRounds.
func (s *Schedule) TotalRounds() int { return s.total }

// FloodProb converts a color into the per-round flood probability over
// the coloring backbone (Fact 11): color·cε/(cprob·lg n), capped at
// maxProb. Broadcast dissemination and the §5 applications share it.
func (s *Schedule) FloodProb(color, cprob, maxProb float64) float64 {
	p := color * s.par.CEps / (cprob * s.lg)
	if p > maxProb {
		p = maxProb
	}
	return p
}

// FloodWindow returns the length of one flood window over the coloring
// backbone in a network of diameter d: rounds when positive, else
// factor·(d+4)·lg n + 2·lg² n rounds — the O(D log n + log² n) window
// of the §5 "wake-up with established coloring".
func (s *Schedule) FloodWindow(rounds int, factor float64, d int) int {
	if rounds > 0 {
		return rounds
	}
	lg := s.lg
	return int(math.Ceil(factor*float64(d+4)*lg + 2*lg*lg))
}
