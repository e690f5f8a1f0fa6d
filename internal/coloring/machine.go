package coloring

import (
	"fmt"

	"sinrcast/internal/rng"
)

// Machine executes one station's StabilizeProbability schedule
// (Algorithm 1). It is driven by local round numbers 0..TotalRounds()-1:
// call Tick(r) once per round in order to learn whether to transmit, and
// OnRecv(r) for every message decoded in round r. After the last round
// call Finish; Color is then final.
//
// A Machine holds only its station's state. The schedule it follows is
// the run's shared, immutable *Schedule, so every per-round method reads
// precomputed segment lengths and thresholds and calls no Params getter.
//
// Machine is embeddable: broadcast protocols run one Machine per phase
// and translate global rounds to local ones.
type Machine struct {
	s   *Schedule
	rnd *rng.Source
	// draws batches the per-round transmission trials of the current
	// DT or PO half-segment, over which p is constant and the machine
	// cannot quit.
	draws rng.Cursor

	quit  bool
	color float64
	pv    float64

	// segment bookkeeping
	synced  int // first local round not yet incorporated into state
	dtPass  bool
	dtCount int
	poCount int
	streak  int // consecutive DT∧PO passes within the current phase
}

// NewMachine builds a station machine following the shared schedule s
// (see Params.Schedule). The rng source must be private to the station
// (use Source.Split with the station id).
func NewMachine(s *Schedule, rnd *rng.Source) *Machine {
	return &Machine{s: s, rnd: rnd, pv: s.pstart}
}

// Reset returns the machine to its initial state (used by phased
// broadcast protocols that re-run the coloring each phase).
func (m *Machine) Reset() {
	m.draws = rng.Cursor{}
	m.quit = false
	m.color = 0
	m.pv = m.s.pstart
	m.synced = 0
	m.dtPass = false
	m.dtCount = 0
	m.poCount = 0
	m.streak = 0
}

// segment identifies where local round r falls in the schedule.
type segment struct {
	phase int
	iter  int
	inPO  bool
}

func (m *Machine) segmentOf(r int) segment {
	pl, il := m.s.phaseLen, m.s.iterLen
	with := r % pl
	return segment{
		phase: r / pl,
		iter:  with / il,
		inPO:  with%il >= m.s.dtLen,
	}
}

// sync finalizes all segments that ended strictly before local round r.
// Receptions of round x are delivered after Tick(x), so finalization
// happens lazily on the first Tick (or Finish) past the boundary.
func (m *Machine) sync(r int) {
	if m.quit {
		m.synced = r
		return
	}
	if r > m.s.total {
		r = m.s.total
	}
	for m.synced < r {
		cur := m.segmentOf(m.synced)
		// Advance to the end of the current half-segment (or to r).
		next := m.halfSegmentEnd(m.synced)
		if next > r {
			// Boundary not reached yet: nothing to finalize.
			m.synced = r
			return
		}
		m.synced = next
		if !cur.inPO {
			m.dtPass = m.dtCount >= m.s.dtNeed
			m.dtCount = 0
			continue
		}
		// Playoff just ended: Algorithm 1 lines 5-6, amplified by the
		// Confirm consecutive-pass requirement (see Params.Confirm).
		if m.dtPass && m.poCount >= m.s.poNeed {
			m.streak++
			if m.streak >= m.s.par.Confirm {
				m.quit = true
				m.color = m.pv
				m.poCount = 0
				return
			}
		} else {
			m.streak = 0
		}
		m.poCount = 0
		// End of a full phase: double pv (Algorithm 1 line 7) and reset
		// the confirmation streak.
		if cur.iter == m.s.par.CPrime-1 && m.segmentOf(m.synced).phase != cur.phase {
			m.pv *= 2
			m.streak = 0
		}
	}
}

// halfSegmentEnd returns the first round after the DT or PO half-segment
// containing r.
func (m *Machine) halfSegmentEnd(r int) int {
	pl, il := m.s.phaseLen, m.s.iterLen
	base := (r / pl) * pl
	with := r % pl
	iterBase := base + (with/il)*il
	if with%il < m.s.dtLen {
		return iterBase + m.s.dtLen
	}
	return iterBase + il
}

// Tick reports whether the station transmits in local round r. Rounds at
// or past TotalRounds, and rounds after quitting, never transmit. The
// trials of a half-segment are drawn ahead on its first Tick (see
// rng.Cursor), so a caller may skip to NextTick(r) in between.
func (m *Machine) Tick(r int) bool {
	if r < m.synced {
		panic(fmt.Sprintf("coloring: Tick(%d) after round %d was synced", r, m.synced))
	}
	m.sync(r)
	if m.quit || r >= m.s.total {
		return false
	}
	p := m.pv
	if m.segmentOf(r).inPO {
		p *= m.s.par.CEps
		if p > 1 {
			p = 1
		}
	}
	return m.draws.Fire(m.rnd, p, r, m.halfSegmentEnd(r))
}

// NextTick returns the first local round after r whose Tick may
// transmit or change state: the next pre-drawn transmission, else the
// end of r's half-segment (where p changes and the machine may quit).
// Once the machine is done it returns TotalRounds. Ticks strictly
// between r and NextTick(r) are no-ops, and receptions do not move it:
// OnRecv only counts, and counts matter only at half-segment ends.
func (m *Machine) NextTick(r int) int {
	if m.quit || r >= m.s.total {
		return m.s.total
	}
	return m.draws.Wake(r)
}

// OnRecv records a successful reception in local round r. Receptions
// outside the schedule or after quitting are ignored.
func (m *Machine) OnRecv(r int) {
	if m.quit || r >= m.s.total || r < 0 {
		return
	}
	if m.segmentOf(r).inPO {
		m.poCount++
	} else {
		m.dtCount++
	}
}

// Finish finalizes the schedule; stations that never switched off get
// the final color 2·pmax (Algorithm 1 line 8).
func (m *Machine) Finish() {
	m.sync(m.s.total)
	if !m.quit {
		m.quit = true
		m.color = m.s.finalColor
	}
}

// Done reports whether the station has a final color (quit or finished).
func (m *Machine) Done() bool { return m.quit }

// Color returns the assigned color; zero until the station quits or
// Finish is called.
func (m *Machine) Color() float64 { return m.color }

// CurrentP returns the station's current doubling probability (pv);
// after quitting it returns the final color.
func (m *Machine) CurrentP() float64 {
	if m.quit {
		return m.color
	}
	return m.pv
}
